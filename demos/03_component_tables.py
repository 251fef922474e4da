"""The genus-independent component tables, built two independent ways.

All of A_{g,n} for every genus is encoded by finitely many components
P_{0,n} .. P_{rmax,n}.  The bootstrap assembles them from low-genus
oracle data; the direct route evaluates a determinantal expression with
no recursion at all.  Watching the two agree coefficient-by-coefficient
is the whole point of having both.
"""

import time

from wkintersect import DTable, direct_p, r_max
from wkintersect.sympoly import ELEMENTARY, SCHUR, SymPoly

n = 4
table = DTable()
table.ensure_upto(r_max(n), n)

print("components of the master polynomial at n=%d (Schur basis):" % n)
for r in range(r_max(n) + 1):
    print("  r=%d:" % r)
    for line in table.p_rn(r, n).text().splitlines():
        print("    " + line)

print("\nsame data in the elementary basis (note how few terms survive):")
for r in range(r_max(n) + 1):
    print("  r=%d:" % r)
    for line in table.p_rn(r, n).change_basis(ELEMENTARY).text().splitlines():
        print("    " + line)

t0 = time.time()
direct = direct_p(n)
total = SymPoly.zero(n, SCHUR)
for r in range(r_max(n) + 1):
    total = total + table.p_rn(r, n)
agrees = direct == total
assert agrees, "the direct route disagrees with the bootstrap at n=%d" % n
print("\ndirect determinantal route agrees: %s  (%.2fs)" % (agrees, time.time() - t0))

print("\ncanonical cache file:")
print(table.dumps())
