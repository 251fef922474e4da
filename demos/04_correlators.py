"""Correlator coefficient tables.

The differential forms W_{g,n} repackage the same rational numbers with
double-factorial weights.  In the Schur-coefficient form the Kostka
numbers cancel entirely.
"""

from wkintersect import DTable, tau, w_gn

table = DTable()

print("W_{1,3} coefficient table:")
print(w_gn(1, 3, table).text())

print("\nround trip back to plain intersection numbers:")
w = w_gn(1, 3, table)
for lam, value in sorted(w.intersection_numbers().items(), reverse=True):
    direct = tau(1, lam + (0,) * (3 - len(lam)), table)
    assert value == direct, (lam, value, direct)
    print("  %-8s %-10s (tau: %s)" % (",".join(map(str, lam)) or "-", value, direct))
