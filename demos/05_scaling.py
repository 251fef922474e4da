"""How the two computation strategies scale with the genus.

The recursion's work grows quickly with g; the closed formula's per-value
cost is one Kostka column and a chain of g 3-ribbon removals started from
it.  On these extreme indices the column is a single shape, and so is
every step of the chain.  Timings are wall-clock medians of three runs,
cold: the formula keeps no memo between calls and the recursion's is
cleared before each run; nothing here is asserted - the point is the
shape of the curve.
"""

import time

from wkintersect import DTable, r_max, tau, virasoro_tau
from wkintersect import oracle

n = 3
g_max = 9
table = DTable()
table.ensure_upto(r_max(n), n)

print("n = %d, index (3g-3+n, 0, ..., 0) per genus" % n)
print("g     formula[s]   recursion[s]")
for g in range(1, g_max + 1):
    d = (3 * g - 3 + n,) + (0,) * (n - 1)
    tf, to = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        a = tau(g, d, table)
        tf.append(time.perf_counter() - t0)
        oracle.clear_memo()
        t0 = time.perf_counter()
        b = virasoro_tau(g, d)
        to.append(time.perf_counter() - t0)
        assert a == b
    print("%-5d %-12.6f %-12.6f" % (g, sorted(tf)[1], sorted(to)[1]))
