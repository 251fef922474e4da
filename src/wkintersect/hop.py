"""The degree-preserving operator that trades monomial symmetric
polynomials for Schur combinations, together with its inverse.

On basis elements the two directions are

    H(m_lam)      = sum_{mu <= lam}  S_{lam,mu} / N_{mu,lam} * s_mu
    H^{-1}(s_mu)  = sum_{lam <= mu}  N_{mu,lam} * K_{mu,lam} * m_lam

with the combinatorial weight

    N_{mu,lam} = 2^{|lam|} prod_i [prod_{j<=mu_i} (j - i + 3/2)] / (2 lam_i + 1)!!

which is gnum(mu) / dden(lam) up to 2^{|lam|}, one integer per
partition.  dden(lam) = prod_i (2 lam_i + 1)!! is ``rational.dden``;
gnum(mu) = prod_i phi(beta_i) / phi(n-1-i), phi(L) = prod_{0<=m<=L}
(2m - 2n + 3), is read off the beads beta = mu + delta (``times_gnum``),
the one key of a Schur coefficient in every integer kernel.  So H is a
diagonal scaling on each side of the monomial/Schur base change of
:mod:`sympoly`.  ``h_integers`` takes {lam padded: dden(lam) [m_lam] A}
over one scale (the form of the oracle's integers T(g, lam)), reads
z_beta off the alternant and returns z_beta L / gnum over the lcm L of
the gnum read; ``h_inverse_integers`` scales Schur coefficients by gnum
and eliminates them into dden(lam) [m_lam] H^{-1}.  ``a_gn`` feeds it the
upward image X_{g,n}.  ``HContext`` wraps both maps for a SymPoly, moving
partitions into beads and back at its edge.  Nothing is kept between
calls.  The differential realization (Vandermonde of derivatives acting
on sqrt(e_n) times the input) is a test oracle and lives with the tests.
"""

import math

from .rational import Rat, dden, double_factorial_odd_int
from .partitions import hook_numbers
from . import sympoly
from .sympoly import MONOMIAL, SCHUR, SymPoly, shape_of_beads


def times_gnum(coeffs, n):
    """{beta: c gnum(mu)} for {beta: c} keyed by the beads beta = mu + delta
    of n beads: gnum(mu) = prod_i prod_{j<=mu_i} (2(j-i)+3), cell by cell,
    telescopes to prod_i phi(beta_i) / phi(n-1-i), one factor per bead."""
    phi = [3 - 2 * n]
    for m in range(1, max(coeffs, default=(0,))[0] + 1):  # the largest bead
        phi.append(phi[-1] * (2 * m - 2 * n + 3))
    base = math.prod(phi[:n])
    out = {}
    for beta, c in coeffs.items():
        for b in beta:
            c *= phi[b]
        out[beta] = c // base
    return out


def barnes_constant(n):
    """The normalization D_n = (-1)^(n-1) 2^(-n(n-1)/2) prod_{k<=n-2} (2k-1)!!."""
    p = 1
    for k in range(1, n - 1):
        p *= double_factorial_odd_int(2 * k - 1)
    sign = -1 if (n - 1) & 1 else 1
    return Rat(sign * p, 1 << (n * (n - 1) // 2))


def h_integers(padded, n, width=None):
    """The integer H.  For f = {lam padded: c} with c / scale = dden(lam)
    [m_lam] A, returns (L, {beta: y}) with [s_mu] H(A) = y / (L scale),
    beta the beads of mu: z_mu = [s_mu] f read off the alternant,
    y = z_mu L / gnum(mu), and L the lcm of gnum over the shapes read.  With
    ``width`` only the shapes with mu_1 <= width are read."""
    z = sympoly.schur_integers(padded, n, width)
    gnum = times_gnum(dict.fromkeys(z, 1), n)
    lcm = math.lcm(*gnum.values())
    return lcm, {beta: c * (lcm // gnum[beta]) for beta, c in z.items()}


def h_inverse_integers(y, n):
    """The integer H^{-1}, the mirror of :func:`h_integers`.  For
    y = {beta: c} with c / scale = [s_mu] B, beta the beads of mu, returns
    {lam: c} != 0 with [m_lam] H^{-1}(B) = c / (dden(lam) scale): the Schur
    to monomial elimination of gnum(mu) y_mu."""
    return sympoly.monomial_integers(times_gnum(y, n), n)


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
        padded = {lam + (0,) * (n - len(lam)): c * dden(lam) for lam, c in items}
        den, y = h_integers(padded, n)
        den *= scale
        return SymPoly._make(n, SCHUR, {shape_of_beads(beta): Rat(c, den) for beta, c in y.items()})

    def apply_inverse(self, poly):
        """H^{-1}(poly), returned in the monomial basis: the integer
        H^{-1} of :func:`h_inverse_integers` on the Schur coefficients
        over one scale, divided once per coefficient."""
        if poly.n != self.n:
            raise ValueError("variable count mismatch")
        scale, items = sympoly._integer_terms(poly.change_basis(SCHUR).terms)
        b = h_inverse_integers({hook_numbers(mu, self.n): c for mu, c in items}, self.n)
        terms = {lam: Rat(c, scale * dden(lam)) for lam, c in b.items()}
        return SymPoly._make(self.n, MONOMIAL, terms)
