"""The closed formula for intersection numbers and its repackagings.

With D the genus-independent Schur coefficients of the master
polynomial components, Q the mod-3-gated determinant

    Q_{nu,mu} = det_{ij} [ d(L_j(mu) - L_i(nu)) / ((L_j(mu) - L_i(nu))/3)! ]

(d(k) = 1 iff k >= 0 and 3 | k) and K~ the weighted Kostka numbers,

    <tau_{lam_1} ... tau_{lam_n}>_g
        = 24^(-g) sum_r 12^r sum_nu sum_{mu >= lam} D_{r,n}(nu) Q_{nu,mu} K~_{mu,lam}.

Since Q_{nu,mu} = <p_3^k s_nu, s_mu> / k!, every Q sum is a chain of
3-ribbon moves, and that is how the numbers are evaluated here:

* ``tau`` runs the adjoint chain downward from its own Kostka column,
  W_0 = sum_mu K_{mu,lam} G(mu) s_mu and W_{k+1} = p_3^perp W_k, and
  dots W_{g-r} with the table block P_{r,n}; all of it on beta numbers
  and integers, from the bead-keyed column to the table's bead view of
  each block;
* ``a_gn`` and ``w_gn`` read one upward image
  X_{g,n} = sum_r 12^r / (g-r)! p_3^(g-r) P_{r,n}, run by Horner's rule
  in p_3 on the table's bead views in integers over one denominator: the
  generating polynomial is H^{-1}(X) / 24^g through the integer H^{-1}
  (``hop.h_inverse_integers``), the correlator coefficients are
  Gamma(mu) X_mu / 12^g = gnum(mu) X_mu / (2^|mu| 12^g) (the Kostka
  numbers cancel), and one ``Rat`` is built per emitted coefficient.

``q_coeff`` keeps the determinant itself as the paper's form of Q and as
a test oracle; no production path evaluates it.
"""

import math

from .rational import RAT_ONE, RAT_ZERO, Rat
from .partitions import format_partition, hook_numbers, ptrim
from .hop import _dden, _gnum, h_inverse_integers
from . import oracle as oracle_mod
from .pengine import DTable, degree_rn, r_max
from .sympoly import (
    MONOMIAL,
    SymPoly,
    _integer_terms,
    kostka_column,
    monomial_integers,
    raise_ribbons,
    runner_counts,
    shape_of_beads,
)


def _bareiss_det(m):
    """Fraction-free Gaussian elimination determinant, exact over Rat."""
    n = len(m)
    if n == 0:
        return RAT_ONE
    a = [row[:] for row in m]
    sign = 1
    prev = RAT_ONE
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return RAT_ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def _q_matrix(nu, mu, n):
    lnu = hook_numbers(nu, n)
    lmu = hook_numbers(mu, n)
    rows = []
    for li in lnu:
        row = []
        for lj in lmu:
            k = lj - li
            if k >= 0 and k % 3 == 0:
                row.append(Rat(1, math.factorial(k // 3)))
            else:
                row.append(RAT_ZERO)
        rows.append(row)
    return rows


def q_coeff(nu, mu, n):
    """Q_{nu,mu} = <p_3^k s_nu, s_mu> / k! with 3k = |mu| - |nu|, evaluated
    as the gated reciprocal-factorial determinant (the paper's form; the
    production paths use the ribbon chains instead)."""
    nu = ptrim(nu)
    mu = ptrim(mu)
    if max(len(nu), len(mu)) > n:
        raise ValueError("partitions need at most %d rows" % (n,))
    diff = sum(mu) - sum(nu)
    if diff < 0 or diff % 3:
        return RAT_ZERO
    return _bareiss_det(_q_matrix(nu, mu, n))


def _tables(g, n, dtable):
    """The table holding P_{r,n} for every r <= top = min(g, r_max(n)),
    bootstrapping missing blocks from the oracle's integer classes; returns
    (dtable, top)."""
    if dtable is None:
        dtable = DTable()
    top = min(g, r_max(n))
    dtable.ensure_upto(top, n)
    return dtable, top


def _lower_ribbons(w):
    """p_3^perp on an integer Schur combination keyed by beta numbers
    (strictly decreasing shifted rows): lower one bead by 3 onto a free
    non-negative position, the sign counting the beads jumped over."""
    out = {}
    for beta, c in w.items():
        n = len(beta)
        for i, b in enumerate(beta):
            t = b - 3
            if t < 0:
                break
            j = i + 1
            while j < n and beta[j] > t:
                j += 1
            if j < n and beta[j] == t:
                continue
            key = beta[:i] + beta[i + 1 : j] + (t,) + beta[j:]
            out[key] = out.get(key, 0) + (-c if (j - i - 1) & 1 else c)
    return {k: v for k, v in out.items() if v}


def tau(g, d, dtable=None):
    """Intersection number <tau_{d_1} ... tau_{d_n}>_g by the closed formula.

    The Q sums are read off the adjoint ribbon chain of the index's Kostka
    column: with W_0 = sum_mu K_{mu,lam} G(mu) s_mu and
    W_{k+1} = p_3^perp W_k,

        tau = sum_r 12^r / (g-r)! <P_{r,n}, W_{g-r}> / (dden(lam) 24^g).

    Everything runs on beta numbers (beads) beta_i = mu_i + n - 1 - i: the
    Kostka column is grown on beads, G(mu) = gnum(mu) is the product of the
    per-bead factors phi(beta_i) / phi(n-1-i) with
    phi(L) = prod_{0<=m<=L} (2m - 2n + 3), the ribbon chain lowers beads,
    and each block enters through the table's integer bead view, so the
    dot product with P_{r,n} is an integer sum and one ``Rat`` is built per
    r.  n = 1, 2 delegate to the recursion oracle (the determinantal chain
    behind the coefficient tables starts at three points).  Missing table
    blocks are bootstrapped on demand.
    """
    d = tuple(d)
    n = len(d)
    oracle_mod.require_stable(g, n)
    if any(x < 0 for x in d):
        raise ValueError("negative tau index in %r" % (d,))
    if sum(d) != degree_rn(g, n):
        return RAT_ZERO
    if n <= 2:
        return oracle_mod.virasoro_tau(g, d)
    lam = tuple(sorted(d, reverse=True))
    dtable, top = _tables(g, n, dtable)
    views = [dtable.beads(r, n) for r in range(top + 1)]

    # phi[L] for every bead a shape of weight |lam| can carry; the
    # denominators phi(n-1-i) are the same for every mu and join the final
    # division
    phi = [3 - 2 * n]
    for m in range(1, sum(lam) + n):
        phi.append(phi[-1] * (2 * m - 2 * n + 3))
    # Ribbon moves keep the 3-core, i.e. the bead count on each runner of
    # the 3-abacus, so only shapes whose count some table entry shares can
    # reach a block.
    cores = set().union(*(view[2] for view in views))
    w = {}
    for beta, kos in kostka_column(lam, n).items():
        if runner_counts(beta) in cores:
            for b in beta:
                kos *= phi[b]
            w[beta] = kos
    total = RAT_ZERO
    for k in range(g + 1):
        r = g - k
        if r <= top:
            den, block, _ = views[r]
            small, large = (w, block) if len(w) <= len(block) else (block, w)
            dot = 0
            for beta, c in small.items():
                v = large.get(beta)
                if v:
                    dot += c * v
            if dot:
                total += Rat(12 ** r * dot, math.factorial(k) * den)
        if k < g:
            w = _lower_ribbons(w)
            if not w:
                break
    return total / (_dden(lam) * 24 ** g * math.prod(phi[:n]))


def _upward_image(g, n, dtable):
    """X_{g,n} = sum_{r<=top} 12^r / (g-r)! p_3^(g-r) P_{r,n} in integers:
    (den, {mu: den X_mu}) in the Schur basis with den the lcm of the
    (g-r)! den_r.  Horner's rule in p_3 runs on the table's bead views
    (g ribbon steps in all)."""
    dtable, top = _tables(g, n, dtable)
    views = [dtable.beads(r, n)[:2] for r in range(top + 1)]
    den = math.lcm(*(math.factorial(g - r) * d for r, (d, _) in enumerate(views)))
    x = {}
    for r, (d, block) in enumerate(views):
        if r:
            x = raise_ribbons(x, 3)
        w = 12 ** r * (den // (math.factorial(g - r) * d))
        for beta, c in block.items():
            x[beta] = x.get(beta, 0) + w * c
    for _ in range(g - top):
        x = raise_ribbons(x, 3)
    return den, {shape_of_beads(beta): c for beta, c in x.items() if c}


def a_gn(g, n, basis=MONOMIAL, dtable=None):
    """Generating polynomial A_{g,n} through the coefficient tables:
    24^g A_{g,n} = H^{-1}(X_{g,n}) with X_{g,n} = sum_r 12^r / (g-r)!
    p_3^(g-r) P_{r,n}, in integers until one ``Rat`` per coefficient."""
    oracle_mod.require_stable(g, n)
    if n <= 2:
        return oracle_mod.a_gn_oracle(g, n).change_basis(basis)
    den, x = _upward_image(g, n, dtable)
    den *= 24 ** g
    terms = {lam: Rat(c, den * _dden(lam)) for lam, c in h_inverse_integers(x, n).items()}
    return SymPoly._make(n, MONOMIAL, terms).change_basis(basis)


# ---------------------------------------------------------------------------
# Correlators
# ---------------------------------------------------------------------------


class Correlator:
    """W_{g,n} as its finite coefficient table: the differential form is

        (-1)^n dx / (2^(n+1) x^(3/2)) * sum_mu c_mu s_mu(1/x)

    with c_mu stored in ``coeffs``.
    """

    __slots__ = ("g", "n", "coeffs")

    def __init__(self, g, n, coeffs):
        self.g = g
        self.n = n
        self.coeffs = {}
        for k, v in coeffs.items():
            v = Rat(v)
            if v:
                self.coeffs[ptrim(k)] = v

    def intersection_numbers(self):
        """Recover the plain tau coefficients from the Schur packaging:
        expanding s_mu(1/x) monomially and matching the defining form gives
        tau(lam) = [m_lam] * 2^(2g+n-3) / prod (2 lam_i + 1)!!, with the
        Schur to monomial elimination in integers over one denominator."""
        den, items = _integer_terms(self.coeffs)
        shift = 2 * self.g + self.n - 3
        m = monomial_integers(dict(items), self.n)
        return {lam: Rat(c << shift, den * _dden(lam)) for lam, c in m.items()}

    def text(self):
        lines = ["W g=%d n=%d" % (self.g, self.n)]
        for mu in sorted(self.coeffs, reverse=True):
            lines.append("%s %s" % (format_partition(mu), self.coeffs[mu]))
        return "\n".join(lines)

    def __eq__(self, other):
        return (
            isinstance(other, Correlator)
            and (self.g, self.n) == (other.g, other.n)
            and self.coeffs == other.coeffs
        )


def w_gn(g, n, dtable=None):
    """Correlator coefficients straight from the tables: the Kostka numbers
    cancel, leaving c_mu = Gamma(mu) X_mu / 12^g with X = X_{g,n} the
    upward image that also gives :func:`a_gn` and
    Gamma(mu) = gnum(mu) / 2^|mu|."""
    if n < 3:
        raise ValueError("correlator tables start at n = 3")
    oracle_mod.require_stable(g, n)
    den, x = _upward_image(g, n, dtable)
    den = (den * 12 ** g) << degree_rn(g, n)  # 2^|mu|, one weight for all mu
    return Correlator(g, n, {mu: Rat(_gnum(mu) * c, den) for mu, c in x.items()})
