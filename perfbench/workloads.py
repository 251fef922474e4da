"""Operation lists of the three workloads, each a pure function of the seed.

An operation is a plain tuple, so two lists can be compared for equality:

* ``("dtable", argv)``        ``wk <argv>`` through ``cli.main``, into a
  fresh cache directory of its own
* ``("direct_p", n)``         the determinantal route, all of P_n
* ``("tau", g, d)``           ``intersect.tau`` on the loaded table
* ``("a_gn", g, n)``          ``intersect.a_gn`` in the monomial basis
* ``("w_gn", g, n)``          ``intersect.w_gn(...).intersection_numbers()``
* ``("oracle", g, d)``        ``oracle.virasoro_tau``

Every list has the same length and the same kinds for every seed; the seed
picks indices inside fixed (kind, g, n) strata and the order.  That keeps
the share of failing operations, and the cost mix behind the percentiles,
the same across seeds.
"""

import random

# the committed input of ``queries`` and ``sweep``: n = 3..5 in full and
# n = 6 up to r = 5, which bounds the genus of every n = 6 query
TABLE_FILE = "dtable_n3-6.txt"
TABLE_N6_R = 5

# tables: the core build is n = 3..5 in full and n = 6 up to CORE_N6_R;
# each of its (n, r) steps is one cold build
CORE_N6_R = 6

# sweep: every admissible index with g <= SWEEP_BOX[n]
SWEEP_BOX = {1: 8, 2: 8, 3: 8, 4: 6, 5: 5, 6: 3}

# queries: genus-0 oracle calls deep enough to hit the recursion limit
# (n = 900 still passes; 1000, 1100 and 1500 raise RecursionError)
DEEP_GENUS0 = (900, 1000, 1100, 1500)


def degree(g, n):
    return 3 * g - 3 + n


def r_max(n):
    return (n - 1) * (n - 2) // 2


def extreme(g, n):
    return (degree(g, n),) + (0,) * (n - 1)


def balanced(g, n):
    q, rem = divmod(degree(g, n), n)
    return (q + 1,) * rem + (q,) * (n - rem)


def _composition(rng, total, n):
    """Uniform random composition of total into n non-negative parts."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (total,)))


def _near_balanced(rng, g, n):
    """The balanced index with one unit moved between two random slots."""
    d = list(balanced(g, n))
    i, j = rng.sample(range(n), 2)
    if d[i] == 0:
        i, j = j, i
    d[i] -= 1
    d[j] += 1
    rng.shuffle(d)
    return tuple(d)


def _shuffled(rng, d):
    d = list(d)
    rng.shuffle(d)
    return tuple(d)


def dtable_argv(n, r):
    return ("dtable", "-n", str(n), "--r-max", str(r))


def core_steps():
    """The (n, r) steps of the core build, in order."""
    tops = {3: r_max(3), 4: r_max(4), 5: r_max(5), 6: CORE_N6_R}
    return [(n, r) for n in sorted(tops) for r in range(tops[n] + 1)]


def tables_ops(seed):
    """One cold ``wk dtable -n N --r-max R`` per step of the core build,
    then ``direct_p(4)``.  Every operation stands alone, so the seed picks
    only the order."""
    rng = random.Random(seed)
    ops = [("dtable", dtable_argv(n, r)) for n, r in core_steps()]
    ops.append(("direct_p", 4))
    rng.shuffle(ops)
    return ops


def queries_ops(seed):
    rng = random.Random(seed)
    ops = []
    # extreme indices (3g-3+n, 0, ..., 0): cheap for the formula
    for n, g_top in ((3, 7), (4, 7), (5, 7), (6, TABLE_N6_R)):
        ops += [("tau", g, _shuffled(rng, extreme(g, n))) for g in range(1, g_top + 1)]
    # n = 1, 2 (delegated to the oracle) and genus 0
    ops += [("tau", g, (degree(g, 1),)) for g in range(1, 8)]
    ops += [("tau", g, _composition(rng, degree(g, 2), 2)) for g in range(1, 8)]
    ops += [("tau", 0, _composition(rng, n - 3, n)) for n in (3, 4, 5, 6)]
    # seeded indices where every index is cheap
    ops += [("tau", g, _composition(rng, degree(g, 3), 3)) for g in range(1, 8)]
    ops += [("tau", g, _composition(rng, degree(g, 4), 4)) for g in range(1, 6) for _ in range(2)]
    # balanced indices: cheap at n <= 4, nearly all q_coeff at n >= 5
    for n, g_top in ((3, 7), (4, 7), (5, 4), (6, 3)):
        ops += [("tau", g, _shuffled(rng, balanced(g, n))) for g in range(1, g_top + 1)]
    ops += [("tau", g, _near_balanced(rng, g, 5)) for g in (3, 3, 3, 3, 4, 4)]
    ops += [("tau", g, _near_balanced(rng, g, 6)) for g in (2, 2, 2, 2)]
    # generating polynomials and correlators
    ops += [("a_gn", g, n) for n in (4, 5, 6) for g in range(1, 5)]
    ops += [("w_gn", g, n) for n, g_top in ((3, 4), (4, 4), (5, 3), (6, 2)) for g in range(1, g_top + 1)]
    # the deep genus-0 calls, the same on every seed
    ops += [("oracle", 0, (n - 3,) + (0,) * (n - 1)) for n in DEEP_GENUS0]
    rng.shuffle(ops)
    return ops


def sweep_ops(seed):
    """Every admissible index of the box in a fixed order (seed-free, so
    that the shared caches are filled the same way on every run)."""
    ops = []
    for n in sorted(SWEEP_BOX):
        for g in range(SWEEP_BOX[n] + 1):
            if 2 * g - 2 + n <= 0:
                continue
            for lam in _partitions(degree(g, n), n, degree(g, n)):
                ops.append(("tau", g, lam + (0,) * (n - len(lam))))
    return ops


def _partitions(d, rows, cap):
    """Partitions of d into at most ``rows`` parts <= cap, reverse-lex."""
    if d == 0:
        return [()]
    if rows == 0:
        return []
    out = []
    for first in range(min(d, cap), 0, -1):
        out += [(first,) + rest for rest in _partitions(d - first, rows - 1, first)]
    return out


OPS = {"tables": tables_ops, "queries": queries_ops, "sweep": sweep_ops}
