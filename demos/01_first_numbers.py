"""First contact: a handful of intersection numbers, two independent ways.

The closed formula needs only a small genus-independent coefficient
table, one Kostka column of the index and a chain of 3-ribbon removals
started from it; the recursion grinds down to the two seed values.  Both
are exact and must agree to the last digit, which is asserted.
"""

from wkintersect import DTable, tau, virasoro_tau

table = DTable()

examples = [
    (0, (0, 0, 0)),
    (0, (1, 0, 0, 0)),
    (1, (1,)),
    (1, (0, 0, 3)),
    (2, (4,)),
    (2, (2, 2, 1, 1, 0)),
    (3, (3, 3, 1, 1, 2)),
]

print("genus  indices            closed formula       recursion")
for g, d in examples:
    lhs = tau(g, d, table)
    rhs = virasoro_tau(g, d)
    assert lhs == rhs, "MISMATCH at genus %d, indices %r: %s != %s" % (g, d, lhs, rhs)
    print("%5d  %-18s %-20s %-18s ok" % (g, ",".join(map(str, d)), lhs, rhs))

# the one-point tower has a famous closed form: 1 / (24^g g!)
import math

from wkintersect import Rat

print("\none-point tower <tau_{3g-2}>_g:")
for g in range(1, 9):
    v = virasoro_tau(g, (3 * g - 2,))
    assert v == Rat(1, 24 ** g * math.factorial(g))
    print("  g=%d: %s" % (g, v))

