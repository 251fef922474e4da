"""Command-line surface: exact intersection numbers, generating
polynomials, coefficient-table management, oracle cross-verification,
the elementary-basis support report and a scaling benchmark.

Exit codes: 0 success, 1 verification mismatch, 2 domain or usage error
(an input out of range or beyond the admission budget, or a malformed
command line), 3 I/O error, 4 internal failure (recursion depth or memory
exhausted, or any other unexpected exception).
All output is deterministic for a fixed configuration and cache state
(timings excepted).
"""

import functools
import os
import sys
import time
import types

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
    toks = text.split(",")
    if not all(tok.strip() for tok in toks):
        raise ValueError("empty index in --powers %r" % (text,))
    return tuple(map(int, toks))


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
    table.ensure_upto(args.r, args.n)
    poly = table.p_rn(args.r, args.n).change_basis(BASIS_NAMES[args.basis])
    emit_sympoly(poly, args.format, out)
    return EXIT_OK


def cmd_dtable(args, out):
    """Add the blocks (0..r_max, n) that the cache lacks and rewrite it.
    The load, build and save run under a POSIX record lock taken with
    ``os.lockf`` on ``dtable.txt.lock``: advisory and held per process, so
    a second ``wk dtable`` waits and then keeps these blocks with its own.
    The file is replaced through ``os.replace``, so no reader sees it torn."""
    r_top = args.r_max if args.r_max is not None else r_max(args.n)
    if not 0 <= r_top <= r_max(args.n):
        raise ValueError("component bound %d out of range for n=%d" % (r_top, args.n))
    path = cache_file(args)
    try:
        os.makedirs(args.cache_dir, exist_ok=True)
        lock = open(path + ".lock", "wb")
    except OSError as exc:
        sys.stderr.write("cache error: %s\n" % (exc,))
        return EXIT_IO
    with lock:
        # the whole load, build and save runs under the lock, so a concurrent
        # writer waits and then loads these blocks with its own
        try:
            os.lockf(lock.fileno(), os.F_LOCK, 0)
            table = DTable.load(path) if os.path.exists(path) else DTable()
        except (OSError, ValueError) as exc:
            sys.stderr.write("cache error: %s\n" % (exc,))
            return EXIT_IO
        table.ensure_upto(r_top, args.n)
        table.counted = True
        tmp = path + ".tmp"
        try:
            table.save(tmp)
            os.replace(tmp, path)
        except OSError as exc:
            sys.stderr.write("cannot write %s: %s\n" % (path, exc))
            return EXIT_IO
    out.write("wrote %s (%d blocks)\n" % (path, len(table.views)))
    return EXIT_OK


def cmd_verify(args, out):
    """Every index with g <= g_max and n <= n_max, formula against oracle.
    At n <= 2 ``tau`` delegates to the oracle, so those indices compare the
    oracle with itself; the per-n lines say which route each n took."""
    # 2g - 2 + n is largest at the top corner of the box
    if args.g_max < 0 or args.n_max < 1 or 2 * args.g_max - 2 + args.n_max <= 0:
        raise ValueError("no admissible index with g <= %d, n <= %d" % (args.g_max, args.n_max))
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
    for r, (_, ints, _) in enumerate(table.ensure_upto(r_top, n)):
        # the support alone counts: the block's bead view goes straight in
        seen = set()
        for lam in sympoly.elementary_integers(ints, n):
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
    if args.g_max < 1:
        raise ValueError("bench needs --g-max >= 1")
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

# An option is (kind, default): kind is int, str, a tuple of choices or FLAG;
# a default of REQUIRED makes the option mandatory, and a callable default is
# called when a command line leaves the option out.
FLAG = bool
REQUIRED = object()
BASES = tuple(sorted(BASIS_NAMES))
DESCRIPTION = "Exact Witten-Kontsevich intersection numbers and their generating polynomials."
GLOBAL_OPTIONS = {
    "--cache-dir": (str, default_cache_dir),
    "--format": (("human", "tsv"), "human"),
}
# command -> (handler name, help line, options).  The handler is looked up
# by name when the command runs, not bound here.
COMMANDS = {
    "tau": ("cmd_tau", "one intersection number", {
        "--genus": (int, REQUIRED),
        "--powers": (str, REQUIRED),
    }),
    "agn": ("cmd_agn", "generating polynomial A_{g,n}", {
        "--genus": (int, REQUIRED),
        "-n": (int, REQUIRED),
        "--basis": (BASES, "monomial"),
    }),
    "pn": ("cmd_pn", "homogeneous component P_{r,n}", {
        "-n": (int, REQUIRED),
        "-r": (int, REQUIRED),
        "--basis": (BASES, "schur"),
    }),
    "dtable": ("cmd_dtable", "write/refresh the coefficient-table cache", {
        "-n": (int, REQUIRED),
        "--r-max": (int, None),
    }),
    "verify": ("cmd_verify", "closed formula against the recursion oracle", {
        "--g-max": (int, 2),
        "--n-max": (int, 4),
    }),
    "elo": ("cmd_elo", "appearing vs allowed elementary-basis support", {
        "-n": (int, REQUIRED),
        "--r-max": (int, None),
    }),
    "bench": ("cmd_bench", "formula vs oracle timing table", {
        "-n": (int, REQUIRED),
        "--g-max": (int, 6),
        "--json": (FLAG, False),
    }),
}
HELP = ("-h", "--help")


class UsageError(Exception):
    """A malformed command line, or a request for help (message None);
    command is None before the command word."""

    def __init__(self, command, message=None):
        super().__init__(message)
        self.command = command
        self.message = message


def _dest(option):
    return option.lstrip("-").replace("-", "_")


def _resolve(token, options, command):
    """(option, attached value or None) for one token that starts with '-':
    '--name', '--name=value', a unique prefix of a long option, '-x',
    '-xVALUE' or '-x=VALUE'.  An unknown or ambiguous name is a UsageError."""
    if token.startswith("--"):
        name, eq, value = token.partition("=")
        names = [o for o in (*options, *HELP) if o.startswith("--")]
        found = [name] if name in names else [o for o in names if o.startswith(name)]
        value = value if eq else None
    else:
        name, value = token[:2], token[2:]
        found = [name] if name in options or name in HELP else []
        value = value[1:] if value.startswith("=") else value or None
    if len(found) != 1:
        raise UsageError(command, "unrecognized arguments: %s" % token)
    return found[0], value


def parse_args(argv):
    """The fields of one ``wk`` command line: ``command``, the global options
    and the command's options, named as the options without their leading
    dashes and with '-' as '_'.  Global options come before the command.
    An option takes the next token as its value whatever it looks like, so
    negative numbers need no quoting.  Raises UsageError."""
    command = None
    options = GLOBAL_OPTIONS
    values = {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if command is not None:
                raise UsageError(command, "unrecognized arguments: %s" % token)
            if token not in COMMANDS:
                raise UsageError(None, "invalid choice: %r (choose from %s)" % (token, ", ".join(COMMANDS)))
            command = token
            options = COMMANDS[command][2]
            continue
        option, value = _resolve(token, options, command)
        kind = FLAG if option in HELP else options[option][0]
        if kind is FLAG:
            if value is not None:
                raise UsageError(command, "argument %s: ignored explicit argument %r" % (option, value))
            if option in HELP:
                raise UsageError(command)
            values[_dest(option)] = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None:
                raise UsageError(command, "argument %s: expected one argument" % option)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(command, "argument %s: invalid int value: %r" % (option, value))
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(
                command, "argument %s: invalid choice: %r (choose from %s)" % (option, value, ", ".join(kind))
            )
        values[_dest(option)] = value
    if command is None:
        raise UsageError(None, "the following arguments are required: command")
    missing = []
    for option, (kind, default) in (*GLOBAL_OPTIONS.items(), *options.items()):
        if _dest(option) not in values:
            if default is REQUIRED:
                missing.append(option)
            values[_dest(option)] = default() if callable(default) else default
    if missing:
        raise UsageError(command, "the following arguments are required: %s" % ", ".join(missing))
    return types.SimpleNamespace(command=command, **values)


def _option_word(option, kind):
    if kind is FLAG:
        return option
    if isinstance(kind, tuple):
        return "%s {%s}" % (option, ",".join(kind))
    return "%s %s" % (option, _dest(option).upper())


def usage(command):
    """The usage line of ``wk`` (command None) or of one command."""
    options = GLOBAL_OPTIONS if command is None else COMMANDS[command][2]
    words = ["wk" if command is None else "wk " + command, "[-h]"]
    for option, (kind, default) in options.items():
        word = _option_word(option, kind)
        words.append(word if default is REQUIRED else "[%s]" % word)
    if command is None:
        words.append("{%s} ..." % ",".join(COMMANDS))
    return "usage: %s\n" % " ".join(words)


def help_text(command):
    """Usage, description, commands (top level) and options with defaults."""
    if command is None:
        options, about = GLOBAL_OPTIONS, DESCRIPTION
    else:
        options, about = COMMANDS[command][2], COMMANDS[command][1]
    lines = [usage(command), about, ""]
    if command is None:
        lines.append("commands:")
        lines += ["  %-8s%s" % (name, spec[1]) for name, spec in COMMANDS.items()]
        lines.append("")
    rows = [("-h, --help", "show this help message and exit")]
    for option, (kind, default) in options.items():
        if default is REQUIRED:
            note = "required"
        elif kind is FLAG or default is None:
            note = ""
        else:
            note = "default %s" % (default() if callable(default) else default,)
        rows.append((_option_word(option, kind), note))
    width = max(len(word) for word, _ in rows)
    lines.append("options:")
    lines += [("  %-*s  %s" % (width, word, note)).rstrip() for word, note in rows]
    return "\n".join(lines) + "\n"


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        if exc.message is None:
            out.write(help_text(exc.command))
            return EXIT_OK
        prog = "wk" if exc.command is None else "wk " + exc.command
        sys.stderr.write("%s%s: error: %s\n" % (usage(exc.command), prog, exc.message))
        return EXIT_DOMAIN
    try:
        return globals()[COMMANDS[args.command][0]](args, out)
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
