"""Integer partitions: transpose, hook numbers, symmetry factors and
constrained enumeration.

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


def hook_numbers(lam, n):
    """The strictly decreasing shifted rows L_i = lam_i - i + n, i = 1..n."""
    k = len(lam)
    if k > n:
        raise ValueError("partition %r has more than %d rows" % (lam, n))
    return tuple([x + n - i for i, x in enumerate(lam, 1)] + list(range(n - k - 1, -1, -1)))


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
    [min_part, max_part], in reverse-lexicographic order (largest first).

    One list holds the current rows: it grows by the largest part that the
    rows left can still complete (part * rows_left >= weight left), and on a
    complete partition or a dead end the last row that can still shrink
    loses one box."""
    if d < 0:
        return
    if d == 0:
        yield ()
        return
    low = max(min_part, 1)
    cap = d if max_part is None else min(max_part, d)
    rows = []
    left = d
    while True:
        k = len(rows)
        top = min(rows[-1] if k else cap, left)
        if k < max_rows and top >= low and top * (max_rows - k) >= left:
            rows.append(top)
            left -= top
            if left:
                continue
            yield tuple(rows)
        while rows:
            part = rows.pop()
            left += part
            if part > low and (part - 1) * (max_rows - len(rows)) >= left:
                rows.append(part - 1)
                left -= part - 1
                break
        else:
            return


def count_partitions(d, max_rows, limit):
    """The number of partitions of d with at most max_rows rows, or, once it
    passes ``limit``, some number above it.  Counted without enumerating:
    the recursion p(w, k) = p(w, k-1) + p(w-k, k) over the partitions of w
    into parts at most k (the transposes), tabulated one k at a time and
    stopped as soon as p(d, k) exceeds the limit."""
    if d < 0:
        return 0
    ways = [1] + [0] * d
    for k in range(1, min(max_rows, d) + 1):
        for w in range(k, d + 1):
            ways[w] += ways[w - k]
        if ways[d] > limit:
            break
    return ways[d]


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
    return ptrim([int(tok) for tok in text.split(",")])
