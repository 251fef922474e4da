"""Generating polynomials in three bases, and the structure theorems
visible in the elementary one.

A_{g,n} packages all genus-g, n-point numbers as a homogeneous symmetric
polynomial of degree 3g-3+n.  In the elementary basis the expansion
A_{g,n} = sum C_g(nu) e_nu e_1^(...) uses only nu with at most g parts,
with coefficients that do not depend on n — both facts checked live here.
"""

from wkintersect import DTable, a_gn
from wkintersect.sympoly import ELEMENTARY, MONOMIAL, SCHUR

table = DTable()

print("A_{2,3} in three bases:\n")
for basis in (MONOMIAL, SCHUR, ELEMENTARY):
    poly = a_gn(2, 3, basis, table)
    print(poly.text())
    print()

print("string equation: A_{g,n+1}(u, 0) = e_1 * A_{g,n}")
for g, n in ((1, 3), (2, 3), (1, 4)):
    big = a_gn(g, n + 1, MONOMIAL, table)
    small = a_gn(g, n, MONOMIAL, table)
    from wkintersect.sympoly import SymPoly

    e1 = SymPoly.basis_element(ELEMENTARY, (1,), n).change_basis(MONOMIAL)
    ok = big.specialize_last_to_zero() == (e1 * small).change_basis(MONOMIAL)
    assert ok, "string equation FAILS at g=%d, n=%d" % (g, n)
    print("  g=%d, n=%d -> holds" % (g, n))

print("\nelementary-basis support bound (at most g parts >= 2):")
for g in (1, 2, 3):
    poly = a_gn(g, 4, ELEMENTARY, table)
    worst = max((sum(1 for x in lam if x >= 2) for lam in poly.terms), default=0)
    assert worst <= g, (g, worst)
    print("  g=%d: longest non-unit index has %d parts" % (g, worst))
