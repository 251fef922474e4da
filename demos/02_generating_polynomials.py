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
    # in the elementary basis u_{n+1} = 0 drops each e_lam with lam_1 > n,
    # and the product by e_1 appends a part 1
    big = a_gn(g, n + 1, ELEMENTARY, table).terms
    small = a_gn(g, n, ELEMENTARY, table).terms
    at_zero = {lam: c for lam, c in big.items() if lam[0] <= n}
    ok = at_zero == {mu + (1,): c for mu, c in small.items()}
    assert ok, "string equation FAILS at g=%d, n=%d" % (g, n)
    print("  g=%d, n=%d -> holds" % (g, n))

print("\nelementary-basis support bound (at most g parts >= 2):")
for g in (1, 2, 3):
    poly = a_gn(g, 4, ELEMENTARY, table)
    worst = max((sum(1 for x in lam if x >= 2) for lam in poly.terms), default=0)
    assert worst <= g, (g, worst)
    print("  g=%d: longest non-unit index has %d parts" % (g, worst))


def elementary_coefficients(g, n):
    """{nu: C_g(nu)} with nu the parts >= 2 of each elementary index."""
    poly = a_gn(g, n, ELEMENTARY, table)
    return {tuple(x for x in lam if x >= 2): c for lam, c in poly.terms.items()}


print("\nelementary coefficients C_g(nu) do not depend on n (nu_1 <= n):")
for g in (1, 2, 3):
    for n in (3, 4):
        small = elementary_coefficients(g, n)
        big = {nu: c for nu, c in elementary_coefficients(g, n + 1).items() if not nu or nu[0] <= n}
        assert small == big, "C_%d(nu) differs between n=%d and n=%d" % (g, n, n + 1)
        print("  g=%d: n=%d and n=%d agree on %d coefficients" % (g, n, n + 1, len(small)))
