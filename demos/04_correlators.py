"""Correlator coefficient tables and their determinant packaging.

The differential forms W_{g,n} repackage the same rational numbers with
double-factorial weights.  In the Schur-coefficient form the Kostka
numbers cancel entirely; summing over genus turns the whole family into
one determinant whose homogeneous pieces are the W_{g,n}.
"""

from wkintersect import DTable, tau, w_gn, wn_det_truncated

table = DTable()

print("W_{1,3} coefficient table:")
print(w_gn(1, 3, table).text())

print("\nround trip back to plain intersection numbers:")
w = w_gn(1, 3, table)
for lam, value in sorted(w.intersection_numbers().items(), reverse=True):
    direct = tau(1, lam + (0,) * (3 - len(lam)), table)
    assert value == direct, (lam, value, direct)
    print("  %-8s %-10s (tau: %s)" % (",".join(map(str, lam)) or "-", value, direct))

print("\nall genera at once from the truncated determinant (n=3, g<=2):")
for g, wd in wn_det_truncated(3, 2, table).items():
    same = wd == w_gn(g, 3, table)
    assert same, "genus %d of the determinant does not match the direct table" % g
    print("  genus %d: %d coefficients, matches the direct table: %s" % (g, len(wd.coeffs), same))
