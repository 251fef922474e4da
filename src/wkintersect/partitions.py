"""Integer partitions: dominance order, transpose, hook numbers, symmetry
factors and constrained enumeration.

Partitions are trimmed tuples (weakly decreasing, no trailing zeros);
the ambient number of rows ``n`` is passed where a quantity depends on
it.
"""

import math
from functools import lru_cache

from .rational import Rat


def ptrim(parts):
    """Normalize an iterable of row lengths to a trimmed partition tuple."""
    rows = tuple(parts)
    for i in range(len(rows) - 1):
        if rows[i] < rows[i + 1]:
            raise ValueError("rows not weakly decreasing: %r" % (rows,))
    if rows and rows[-1] < 0:
        raise ValueError("negative row in %r" % (rows,))
    k = len(rows)
    while k and rows[k - 1] == 0:
        k -= 1
    return rows[:k]


def transpose(lam):
    """Conjugate partition: column lengths of the Young diagram."""
    if not lam:
        return ()
    out = []
    for i in range(1, lam[0] + 1):
        out.append(sum(1 for x in lam if x >= i))
    return tuple(out)


def dominates(lam, mu):
    """Dominance order: every leading partial sum of lam >= that of mu.

    Comparisons across unequal weights return False.
    """
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def hook_numbers(lam, n):
    """The strictly decreasing shifted rows L_i = lam_i - i + n, i = 1..n."""
    if len(lam) > n:
        raise ValueError("partition %r has more than %d rows" % (lam, n))
    return tuple((lam[i] if i < len(lam) else 0) - (i + 1) + n for i in range(n))


def z_factor(lam, n):
    """Symmetry factor z_lam = prod_k (#rows equal to k)!, zero rows included."""
    if len(lam) > n:
        raise ValueError("partition %r has more than %d rows" % (lam, n))
    z = math.factorial(n - len(lam))
    run = 1
    for i in range(1, len(lam) + 1):
        if i < len(lam) and lam[i] == lam[i - 1]:
            run += 1
        else:
            z *= math.factorial(run)
            run = 1
    return Rat(z)


def enumerate_partitions(d, max_rows, min_part=1, max_part=None):
    """Yield the partitions of d with at most max_rows rows and parts within
    [min_part, max_part], in reverse-lexicographic order (largest first)."""
    if d < 0:
        return
    if max_part is None or max_part > d:
        max_part = d

    def rec(remaining, rows_left, cap):
        if remaining == 0:
            yield ()
            return
        if rows_left == 0 or cap < min_part or remaining < min_part:
            return
        top = min(cap, remaining)
        for first in range(top, min_part - 1, -1):
            for rest in rec(remaining - first, rows_left - 1, first):
                yield (first,) + rest

    yield from rec(d, max_rows, max_part)


@lru_cache(maxsize=None)
def partition_class(d, n):
    """All partitions of weight d with at most n rows, reverse-lex (cached)."""
    return tuple(enumerate_partitions(d, n))


def format_partition(lam):
    """Comma-separated parts without zero padding; '-' for the empty one."""
    return ",".join(str(x) for x in lam) if lam else "-"


def parse_partition(text):
    text = text.strip()
    if text == "-" or text == "":
        return ()
    return ptrim(int(tok) for tok in text.split(","))
