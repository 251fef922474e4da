"""The degree-preserving operator that trades monomial symmetric
polynomials for Schur combinations, together with its inverse.

On basis elements the two directions are

    H(m_lam)      = sum_{mu <= lam}  S_{lam,mu} / N_{mu,lam} * s_mu
    H^{-1}(s_mu)  = sum_{lam <= mu}  N_{mu,lam} * K_{mu,lam} * m_lam

with the combinatorial weight

    N_{mu,lam} = 2^{|lam|} prod_i [prod_{j<=mu_i} (j - i + 3/2)] / (2 lam_i + 1)!!

which reduces to the ratio of two integers, one depending on each
partition.  The production path is therefore a diagonal scaling on each
side of the monomial/Schur base change of :mod:`sympoly`.  In the
forward direction it is an integer map (``h_integers``): the input is
{lam: dden(lam) [m_lam] A} over one common scale, the alternant read
gives z_mu = [s_mu] of it, and z_mu L / gnum(mu), with L the lcm of the
gnum read, is H(A) over the single denominator L times that scale.  The
recursion oracle's integers T(g, lam) already have that form, and
``HContext.apply`` puts any SymPoly into it.  The inverse is its mirror
(``h_inverse_integers``): Schur coefficients y_mu over one scale, scaled
by gnum(mu) and eliminated into the monomial basis in integers, give
dden(lam) [m_lam] H^{-1} over that scale.  ``a_gn`` feeds it the integer
upward image X_{g,n}, and ``HContext.apply_inverse`` is the same map
wrapped for a SymPoly.  gnum and dden are recomputed for each shape a
call reads; this module keeps nothing between calls.  The differential
realization (Vandermonde of derivatives acting on sqrt(e_n) times the
input) is a test oracle and lives with the tests.
"""

import math

from .rational import Rat, double_factorial_odd_int
from . import sympoly
from .sympoly import MONOMIAL, SCHUR, SymPoly


def _gnum(mu):
    """prod_i prod_{j<=mu_i} (2(j-i)+3), an integer."""
    v = 1
    for i, row in enumerate(mu, start=1):
        for j in range(1, row + 1):
            v *= 2 * (j - i) + 3
    return v


def _dden(lam):
    """prod_i (2 lam_i + 1)!!."""
    v = 1
    for row in lam:
        v *= double_factorial_odd_int(2 * row + 1)
    return v


def barnes_constant(n):
    """The normalization D_n = (-1)^(n-1) 2^(-n(n-1)/2) prod_{k<=n-2} (2k-1)!!."""
    p = 1
    for k in range(1, n - 1):
        p *= double_factorial_odd_int(2 * k - 1)
    sign = -1 if (n - 1) & 1 else 1
    return Rat(sign * p, 1 << (n * (n - 1) // 2))


def h_integers(padded, n, width=None):
    """The integer H.  For f = {lam padded: c} with c / scale = dden(lam)
    [m_lam] A, returns (L, {mu: y}) with [s_mu] H(A) = y / (L scale):
    z_mu = [s_mu] f read off the alternant, y = z_mu L / gnum(mu), and L
    the lcm of gnum over the shapes read.  With ``width`` only the shapes
    with mu_1 <= width are read."""
    z = sympoly.schur_integers(padded, n, width)
    gnum = {mu: _gnum(mu) for mu in z}
    lcm = math.lcm(*gnum.values())
    return lcm, {mu: c * (lcm // gnum[mu]) for mu, c in z.items()}


def h_inverse_integers(y, n):
    """The integer H^{-1}, the mirror of :func:`h_integers`.  For
    y = {mu: c} with c / scale = [s_mu] B, returns {lam: c} != 0 with
    [m_lam] H^{-1}(B) = c / (dden(lam) scale): the Schur to monomial
    elimination of gnum(mu) y_mu."""
    return sympoly.monomial_integers({mu: c * _gnum(mu) for mu, c in y.items()}, n)


class HContext:
    """Applies the operator and its inverse for a fixed variable count."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n

    def apply(self, poly):
        """H(poly), returned in the Schur basis: the integer H of
        :func:`h_integers` on {lam padded: dden(lam) [m_lam] poly} over one
        scale, divided once per coefficient."""
        n = self.n
        if poly.n != n:
            raise ValueError("variable count mismatch")
        scale, items = sympoly._integer_terms(poly.change_basis(MONOMIAL).terms)
        padded = {lam + (0,) * (n - len(lam)): c * _dden(lam) for lam, c in items}
        den, y = h_integers(padded, n)
        den *= scale
        return SymPoly._make(n, SCHUR, {mu: Rat(c, den) for mu, c in y.items()})

    def apply_inverse(self, poly):
        """H^{-1}(poly), returned in the monomial basis: the integer
        H^{-1} of :func:`h_inverse_integers` on the Schur coefficients
        over one scale, divided once per coefficient."""
        if poly.n != self.n:
            raise ValueError("variable count mismatch")
        scale, items = sympoly._integer_terms(poly.change_basis(SCHUR).terms)
        b = h_inverse_integers(dict(items), self.n)
        terms = {lam: Rat(c, scale * _dden(lam)) for lam, c in b.items()}
        return SymPoly._make(self.n, MONOMIAL, terms)
