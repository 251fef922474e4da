"""Brute-force reference implementations the fast code is checked against.

Everything here is deliberately naive: direct tableau enumeration,
permutation sums, exponent-level polynomial division, rows of K^{-1} by a
walk over rearrangements, DVV recursions pivoted on the largest index,
partitions enumerated by one generator per row, the bialternant
coefficient as a sum over all n! permutations.
None of it shares code with the production paths, except that the
formula-level references at the end (H^{-1} of elementary products, the
unpruned bootstrap) are assembled from the library's whole Kostka columns,
and the bialternant and the differential H run on the library's Laurent
polynomials (the one polynomial type of :mod:`wkintersect.laurent`, which
the production paths do not use).

The paper's alternative forms that no production path evaluates live
here too: the scalar cofactor determinant ``laplace_det``, the trace-shift
lemma ``trace_shift_invariance`` (plain ``Rat`` 2x2 matrices), the genus-0
and genus-1 closed forms ``closed_a0n``/``closed_a1n`` (``SymPoly`` in the
elementary basis), and the all-genus determinant ``wn_det_truncated``,
which reads the ``DTable`` blocks and expands its determinant by ``SymPoly``
products (``_sym_laplace_det``) before returning ``Correlator`` tables.

The small tools that these references and the tests use but no production
path needs come first: the dominance order ``dominates``, H's weight
gnum(mu) cell by cell (``gnum_cells``, the reference for the bead form
that production reads), the half-integer
Gamma ratio ``gamma_half_ratio`` of the determinant's entries and of the
``w_gn`` weights, ``complete_homogeneous`` and ``scale`` for ``SymPoly``s,
and ``evaluate``, the exact value of a ``SymPoly`` or ``LaurentPoly`` at
a rational point.

``build_parser`` is the argparse parser of the ``wk`` command line from
before its one table of commands, kept as the reference that
``cli.parse_args`` is compared against.
"""

import argparse
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

from wkintersect import laurent
from wkintersect.cli import (
    BASIS_NAMES,
    cmd_agn,
    cmd_bench,
    cmd_dtable,
    cmd_elo,
    cmd_pn,
    cmd_tau,
    cmd_verify,
    default_cache_dir,
)
from wkintersect.rational import RAT_ONE, RAT_ZERO, Rat, dden
from wkintersect.partitions import hook_numbers, partition_class, ptrim
from wkintersect.hop import barnes_constant
from wkintersect.intersect import Correlator
from wkintersect.pengine import DTable, degree_rn, r_max
from wkintersect.sympoly import (
    ELEMENTARY,
    SymPoly,
    MONOMIAL,
    SCHUR,
    dual_kostka_column,
    kostka_column,
    shape_of_beads,
)


def dominates(lam, mu):
    """Dominance order: every leading partial sum of lam >= that of mu.

    Comparisons across unequal weights return False.
    """
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def gnum_cells(mu):
    """gnum(mu) = prod_i prod_{j<=mu_i} (2(j-i)+3), one factor per cell
    (row i, column j) of mu: the reference for the bead form of
    :func:`wkintersect.hop.times_gnum`."""
    v = 1
    for i, row in enumerate(mu, start=1):
        for j in range(1, row + 1):
            v *= 2 * (j - i) + 3
    return v


def gamma_half_ratio(a_num, shift):
    """Gamma(a_num/2 + shift) / Gamma(a_num/2), exactly.

    a_num must be odd so the argument is a genuine half-integer and the
    ratio telescopes to the rational product prod_{j=0}^{shift-1} (a_num/2 + j)
    (reciprocal product for negative shift).  Never hits a Gamma pole.
    """
    if a_num % 2 == 0:
        raise ValueError("numerator must be odd, got %r" % (a_num,))
    if shift >= 0:
        num = 1
        for j in range(shift):
            num *= a_num + 2 * j
        return Rat(num, 1 << shift) if shift else RAT_ONE
    m = -shift
    den = 1
    for j in range(1, m + 1):
        den *= a_num - 2 * j
    return Rat(1 << m, den)


def complete_homogeneous(k, n):
    """h_k = sum of all monomials of degree k, in the monomial basis."""
    if k < 0:
        return SymPoly.zero(n)
    return SymPoly(n, MONOMIAL, {lam: RAT_ONE for lam in partition_class(k, n)})


def scale(poly, c):
    """c times a SymPoly, in its basis."""
    c = Rat(c)
    if not c:
        return SymPoly.zero(poly.n, poly.basis)
    return SymPoly._make(poly.n, poly.basis, {k: c * v for k, v in poly.terms.items()})


def evaluate(poly, point):
    """The exact value of a SymPoly or a LaurentPoly at a point of
    rationals; every exponent of the LaurentPoly must be even (an integer
    power of u)."""
    if isinstance(poly, SymPoly):
        poly = poly.to_exponent_poly()
    if len(point) != poly.n:
        raise ValueError("point length %d != %d variables" % (len(point), poly.n))
    point = [Fraction(x) for x in point]
    total = 0
    for k, v in poly.terms.items():
        if any(e % 2 for e in k):
            raise ValueError("half-integer power %r has no rational value" % (k,))
        for x, e in zip(point, k):
            if e:
                v *= x ** (e // 2)
        total += v
    return Fraction(total) / poly.den


def enumerate_partitions_recursive(d, max_rows, min_part=1, max_part=None):
    """The partitions of d with at most max_rows rows and parts within
    [min_part, max_part], reverse-lexicographic, by one generator per row:
    each level tries every first part from the largest down."""
    if d < 0:
        return
    if max_part is None or max_part > d:
        max_part = d

    def rec(remaining, rows_left, cap):
        if remaining == 0:
            yield ()
            return
        if rows_left == 0 or cap < min_part or remaining < min_part:
            return
        top = min(cap, remaining)
        for first in range(top, min_part - 1, -1):
            for rest in rec(remaining - first, rows_left - 1, first):
                yield (first,) + rest

    yield from rec(d, max_rows, max_part)


def ssyt_count(shape, content):
    """Semistandard tableaux of the given shape and content, by direct fill."""
    rows = len(shape)
    grid = [[0] * shape[i] for i in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    cnt = [0] * len(content)
    total = 0

    def rec(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, len(content) + 1):
            if cnt[v - 1] < content[v - 1]:
                cnt[v - 1] += 1
                grid[i][j] = v
                rec(idx + 1)
                cnt[v - 1] -= 1

    rec(0)
    return total


def contingency_count(rows, cols):
    """Non-negative integer matrices with the given row and column sums."""
    n = len(rows)
    m = len(cols)

    def rec(i, remaining_cols):
        if i == n:
            return 1 if all(c == 0 for c in remaining_cols) else 0
        total = 0

        def fill(j, left, cols_state):
            nonlocal total
            if j == m:
                if left == 0:
                    total += rec(i + 1, cols_state)
                return
            for v in range(0, min(left, cols_state[j]) + 1):
                fill(j + 1, left - v, cols_state[:j] + (cols_state[j] - v,) + cols_state[j + 1 :])

        fill(0, rows[i], tuple(remaining_cols))
        return total

    return rec(0, tuple(cols))


def contingency_kostka(mu, lam, n):
    """Kostka number as a signed sum of contingency-table counts: expanding
    the Jacobi-Trudi determinant of complete homogeneous pieces row by row
    gives K_{mu,lam} = sum_sigma sgn(sigma) #{matrices with row sums
    mu_i - i + sigma(i) and column sums lam}."""
    mu_p = mu + (0,) * (n - len(mu))
    lam_p = lam + (0,) * (n - len(lam))
    total = 0
    for perm in permutations(range(1, n + 1)):
        sign = _perm_sign(perm)
        rows = tuple(mu_p[i] + perm[i] - (i + 1) for i in range(n))
        if any(r < 0 for r in rows):
            continue
        total += sign * contingency_count(rows, lam_p)
    return total


def _perm_sign(perm):
    inv = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inv & 1 else 1


def inverse_kostka_row(lam, nrows):
    """Row lam of K^{-1}: the coefficients S_{lam,mu} with m_lam =
    sum_mu S_{lam,mu} s_mu, the coefficients of x^(mu+delta) in
    a_delta * m_lam.  Each distinct rearrangement alpha of lam whose
    beta = alpha + delta has distinct entries adds the sign of sorting
    beta to mu = sort(beta) - delta; the walk stops at the first
    collision."""
    left = {}
    for part in lam + (0,) * (nrows - len(lam)):
        left[part] = left.get(part, 0) + 1
    beta = []
    acc = {}

    def walk(shift, inv):
        if shift < 0:
            srt = sorted(beta, reverse=True)
            mu = ptrim([b - nrows + 1 + j for j, b in enumerate(srt)])
            acc[mu] = acc.get(mu, 0) + (-1 if inv & 1 else 1)
            return
        for part, k in left.items():
            b = part + shift
            if k and b not in beta:
                left[part] = k - 1
                beta.append(b)
                walk(shift - 1, inv + sum(1 for x in beta if x < b))
                beta.pop()
                left[part] = k

    walk(nrows - 1, 0)
    return {mu: s for mu, s in acc.items() if s}


def alternant_coefficient(padded, mu, n):
    """[x^(mu+delta)] a_delta * f for f = {partition padded to n parts:
    [m_lam] f}: the plain sum over all n! permutations w of delta, each
    term signed by w and reading [x^(mu+delta-w)] f off the sorted
    exponents when none is negative."""
    beta = hook_numbers(mu, n)
    total = 0
    for w in permutations(range(n - 1, -1, -1)):
        alpha = [b - v for b, v in zip(beta, w)]
        if min(alpha) >= 0:
            sign = _perm_sign(tuple(-v for v in w))
            total += sign * padded.get(tuple(sorted(alpha, reverse=True)), 0)
    return total


def signed_det_inverse_kostka(lam, mu, n):
    """Inverse Kostka entry as a normalized signed sum of 0/1 determinants.

    For each permutation, row i seeks the column with mu_j - j + n =
    lam_i + sigma(i) - 1; the determinant is the sign of that matching
    when it is a bijection.  Rows with equal lam_i are interchangeable, so
    the raw double sum overcounts by the symmetry factor z_lam (zero rows
    included) and carries a global alternator sign (-1)^(n(n-1)/2)."""
    from wkintersect.partitions import z_factor

    lam_p = lam + (0,) * (n - len(lam))
    lmu = hook_numbers(mu, n)
    where = {v: j for j, v in enumerate(lmu)}
    total = 0
    for sigma in permutations(range(1, n + 1)):
        match = []
        ok = True
        for i in range(n):
            j = where.get(lam_p[i] + sigma[i] - 1)
            if j is None:
                ok = False
                break
            match.append(j)
        if not ok or len(set(match)) != n:
            continue
        total += _perm_sign(sigma) * _perm_sign(tuple(match))
    sign = -1 if (n * (n - 1) // 2) & 1 else 1
    return Rat(sign * total) / z_factor(lam, n)


def vandermonde_exponent_poly(n):
    """prod_{i<j} (u_i - u_j) as a LaurentPoly (exponents doubled)."""
    out = laurent.LaurentPoly.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            out = out * laurent.LaurentPoly(
                n, {tuple(2 * (t == i) for t in range(n)): 1, tuple(2 * (t == j) for t in range(n)): -1}
            )
    return out


def bialternant_schur(lam, n):
    """Schur polynomial as det(u_i^{L_j}) / Vandermonde, fully expanded."""
    L = hook_numbers(lam, n)
    num = {}
    for sigma in permutations(range(n)):
        num[tuple(2 * L[sigma[i]] for i in range(n))] = _perm_sign(tuple(s + 1 for s in sigma))
    quotient = laurent.LaurentPoly(n, num).divide_exact(vandermonde_exponent_poly(n))
    return SymPoly.from_exponent_poly(quotient)


def jacobi_trudi_schur(lam, n):
    """Schur polynomial as the determinant of complete homogeneous pieces."""
    L = hook_numbers(lam, n)
    rows = []
    for i in range(n):
        rows.append(
            [complete_homogeneous(L[i] - (n - 1 - j), n) for j in range(n)]
        )
    return _sym_laplace_det(rows)


def _sym_laplace_det(rows):
    """Determinant of a matrix of SymPolys, expanding along rows with the
    column-subset minors memoized."""
    n = len(rows)
    nvars = rows[0][0].n
    memo = {}

    def rec(cols):
        if not cols:
            return SymPoly.one(nvars)
        got = memo.get(cols)
        if got is not None:
            return got
        i = n - len(cols)
        total = SymPoly.zero(nvars, MONOMIAL)
        for idx, j in enumerate(cols):
            entry = rows[i][j]
            if not entry.terms:
                continue
            term = entry * rec(cols[:idx] + cols[idx + 1 :])
            total = total + (term if idx % 2 == 0 else -term)
        memo[cols] = total
        return total

    return rec(tuple(range(n)))


def laplace_det(m):
    """Cofactor-expansion determinant of a matrix of Rats."""
    n = len(m)
    if n == 0:
        return RAT_ONE
    if n == 1:
        return m[0][0]
    total = RAT_ZERO
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        c = m[0][j] * laplace_det(minor)
        total += c if j % 2 == 0 else -c
    return total


def _mat_mul(a, b):
    return (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )


def _cyclic_sum(matrices, xs):
    n = len(matrices)
    total = RAT_ZERO
    for tail in permutations(range(1, n)):
        # the cyclic permutation sending 0 -> tail[0] -> ... -> tail[-1] -> 0
        sigma = {}
        chain = (0,) + tail
        for a, b in zip(chain, chain[1:] + (0,)):
            sigma[a] = b
        prod = matrices[0]
        k = sigma[0]
        while k != 0:
            prod = _mat_mul(prod, matrices[k])
            k = sigma[k]
        tr = prod[0][0] + prod[1][1]
        den = RAT_ONE
        for i in range(n):
            den = den * (xs[i] - xs[sigma[i]])
        total += tr / den
    return total


def trace_shift_invariance(matrices, xs, shifts):
    """Whether the cyclic-permutation trace sum
    sum_sigma Tr(M_0 M_sigma(0) ...) / prod_i (x_i - x_sigma(i)) is unchanged
    when each matrix M_i is shifted by alpha_i * Id.  (It always is; this
    evaluates both sides exactly and reports equality.)"""
    n = len(matrices)
    if not (len(xs) == len(shifts) == n) or n < 3:
        raise ValueError("need n >= 3 matrices, points and shifts")
    if len(set(xs)) != n:
        raise ValueError("evaluation points must be pairwise distinct")
    mats = tuple(
        tuple(tuple(Rat(x) for x in row) for row in m) for m in matrices
    )
    xs = tuple(Rat(x) for x in xs)
    before = _cyclic_sum(mats, xs)
    shifted = []
    for m, al in zip(mats, shifts):
        al = Rat(al)
        shifted.append(((m[0][0] + al, m[0][1]), (m[1][0], m[1][1] + al)))
    after = _cyclic_sum(tuple(shifted), xs)
    return before == after


def closed_a0n(n):
    """Genus 0 closed form e_1^(n-3)."""
    if n < 3:
        raise ValueError("closed genus-0 form needs n >= 3")
    return SymPoly(n, ELEMENTARY, {(1,) * (n - 3): RAT_ONE})


def closed_a1n(n):
    """Genus 1 closed form (e_1^n - sum_k (k-2)! e_k e_1^(n-k)) / 24."""
    if n < 1:
        raise ValueError("need n >= 1")
    terms = {(1,) * n: Rat(1, 24)}
    for k in range(2, n + 1):
        terms[ptrim((k,) + (1,) * (n - k))] = Rat(-math.factorial(k - 2), 24)
    return SymPoly(n, ELEMENTARY, terms)


def dvv_fraction(g, d, memo=None):
    """<tau_{d_1} ... tau_{d_n}>_g by the DVV recursion on Fractions,
    always pivoting on the largest index and dividing by its double
    factorial (no string or dilaton shortcut).  ``memo`` may be shared
    between calls; nothing is shared with the library's oracle."""
    if memo is None:
        memo = {}
    return _dvv(g, tuple(sorted(d, reverse=True)), memo)


def _dfact(k):
    """k!! for odd k >= -1."""
    p = 1
    while k > 1:
        p *= k
        k -= 2
    return p


def _dvv(g, d, memo):
    n = len(d)
    if 2 * g - 2 + n <= 0 or sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and d == (0, 0, 0):
        return Fraction(1)
    if g == 1 and d == (1,):
        return Fraction(1, 24)
    if (g, d) in memo:
        return memo[(g, d)]

    def sub(gg, parts):
        return _dvv(gg, tuple(sorted(parts, reverse=True)), memo)

    k = d[0] - 1
    rest = list(d[1:])
    total = Fraction(0)
    for j, v in enumerate(rest):
        others = rest[:j] + rest[j + 1 :]
        total += Fraction(_dfact(2 * k + 2 * v + 1), _dfact(2 * v - 1)) * sub(g, others + [v + k])
    for a in range(k):
        b = k - 1 - a
        w = Fraction(_dfact(2 * a + 1) * _dfact(2 * b + 1), 2)
        if g:
            total += w * sub(g - 1, rest + [a, b])
        # every subset of the remaining indices, position by position
        for mask in range(1 << len(rest)):
            left = [x for i, x in enumerate(rest) if mask >> i & 1]
            right = [x for i, x in enumerate(rest) if not mask >> i & 1]
            # the degree of the left side fixes its genus
            g1, r = divmod(a + sum(left) - len(left) + 2, 3)
            if not r and 0 <= g1 <= g:
                total += w * sub(g1, left + [a]) * sub(g - g1, right + [b])
    value = total / _dfact(2 * k + 3)
    memo[(g, d)] = value
    return value


def dvv_integer(g, d, memo=None):
    """T(g, d) = 2^(4g-2+n) prod_i (2 d_i + 1)!! <tau_{d_1} ... tau_{d_n}>_g
    by the integer DVV recursion, always pivoting on the largest index (no
    string or dilaton step).  The index subsets of each splitting are
    counted per multiset, so it is fast enough for whole classes.
    ``memo`` may be shared between calls; nothing is shared with the
    library's oracle."""
    if memo is None:
        memo = {}
    return _dvv_int(g, tuple(sorted(d, reverse=True)), memo)


def _multiset_splits(rest):
    """(left, right, ways) for every split of the multiset rest into two,
    ways counting the index subsets that give it."""
    out = [((), (), 1)]
    for v, m in Counter(rest).items():
        out = [
            (left + (v,) * t, right + (v,) * (m - t), ways * math.comb(m, t))
            for left, right, ways in out
            for t in range(m + 1)
        ]
    return out


def _dvv_int(g, d, memo):
    n = len(d)
    if 2 * g - 2 + n <= 0 or sum(d) != 3 * g - 3 + n:
        return 0
    if g == 0 and d == (0, 0, 0):
        return 2
    if g == 1 and d == (1,):
        return 1
    if (g, d) in memo:
        return memo[(g, d)]

    def sub(gg, parts):
        return _dvv_int(gg, tuple(sorted(parts, reverse=True)), memo)

    piv, rest = d[0], d[1:]
    total = 0
    for j, v in enumerate(rest):
        total += 2 * (2 * v + 1) * sub(g, rest[:j] + (v + piv - 1,) + rest[j + 1 :])
    splits = _multiset_splits(rest)
    for a in range(piv - 1):
        b = piv - 2 - a
        if g:
            total += 4 * sub(g - 1, rest + (a, b))
        for left, right, ways in splits:
            # the degree of the left side fixes its genus
            g1, r = divmod(a + sum(left) - len(left) + 2, 3)
            if not r and 0 <= g1 <= g:
                total += ways * sub(g1, left + (a,)) * sub(g - g1, right + (b,))
    memo[(g, d)] = total
    return total


def h_raw(poly):
    """H via its differential realization: antisymmetrized derivatives of
    sqrt(e_n) times the input, then Vandermonde division, on the integer
    Laurent polynomials with one ``Rat`` per emitted coefficient.
    Exponential in n; meant for low-degree cross-checks of
    ``HContext.apply``."""
    n = poly.n
    work = poly.to_exponent_poly().shift_all(1)  # multiply by sqrt(e_n)
    for i in range(n):
        for j in range(i + 1, n):
            work = work.diff(i) - work.diff(j)
    # the result is antisymmetric, so collecting over the symmetric group
    # overcounts each alternant by n!
    classes = laurent.antisym_classes(work)
    classes = classes.shift_all(2 * n - 3)  # e_n^(n - 3/2)
    norm = barnes_constant(n) * math.factorial(n)
    num, den = norm.denominator, norm.numerator * classes.den
    out = {}
    for ex, c in classes.terms.items():
        if any(e % 2 for e in ex):
            raise AssertionError("half-integer exponent survived")
        if ex[-1] < 0:
            raise AssertionError("negative exponent survived")
        out[ptrim(ex[i] // 2 - (n - i - 1) for i in range(n))] = Rat(c * num, den)
    return SymPoly(n, SCHUR, out)


_KOSTKA_ROWS = {}


def kostka_row_restricted(mu, nrows):
    """Row of the Kostka matrix: {lam: K_{mu,lam}} over contents with at
    most nrows rows (the monomial expansion of s_mu in n variables)."""
    key = (mu, nrows)
    row = _KOSTKA_ROWS.get(key)
    if row is None:
        row = {}
        for lam in partition_class(sum(mu), nrows):
            k = kostka_column(lam, nrows).get(hook_numbers(mu, nrows))
            if k:
                row[lam] = k
        _KOSTKA_ROWS[key] = row
    return row


def apply_inverse_elementary(n, lam):
    """H^{-1}(e_lam) in n variables through the double Kostka sum
    sum_{nu <= mu <= lam^T} K_{mu^T,lam} K~_{mu,nu} m_nu."""
    lam = ptrim(lam)
    if lam and lam[0] > n:
        raise ValueError("elementary index %r exceeds %d variables" % (lam, n))
    out = {}
    for beta, kdual in dual_kostka_column(lam, n).items():
        mu = shape_of_beads(beta)
        gm = kdual * gnum_cells(mu)
        for nu, k in kostka_row_restricted(mu, n).items():
            w = out.get(nu, RAT_ZERO) + Rat(gm * k, dden(nu))
            if w:
                out[nu] = w
            elif nu in out:
                del out[nu]
    return SymPoly(n, MONOMIAL, out)


def _ribbons(terms, n):
    """p_3 times a Schur combination {mu: c}: raise one bead of the beta
    numbers by 3, the sign counting the beads jumped over."""
    out = {}
    for nu, c in terms.items():
        beta = hook_numbers(nu, n)
        for b in beta:
            if b + 3 in beta:
                continue
            jumped = sum(1 for x in beta if b < x < b + 3)
            new = sorted([x for x in beta if x != b] + [b + 3], reverse=True)
            mu = ptrim(x - (n - 1 - j) for j, x in enumerate(new))
            out[mu] = out.get(mu, 0) + (-c if jumped % 2 else c)
    return {mu: c for mu, c in out.items() if c}


def bootstrap_unpruned(r_top, n, a_provider):
    """P_{0,n} .. P_{r_top,n} with no box: H(A_{g,n}) from whole rows of
    K^{-1} over every shape, and the full p_3 ribbon images, as
    {r: {mu: coefficient}}."""
    acc = {r: {} for r in range(r_top + 1)}
    for g in range(r_top + 1):
        img = {}
        for lam, c in a_provider(g).change_basis(MONOMIAL).terms.items():
            for mu, s in inverse_kostka_row(lam, n).items():
                img[mu] = img.get(mu, 0) + c * dden(lam) * s
        term = {mu: v / gnum_cells(mu) for mu, v in img.items() if v}
        for r in range(g, r_top + 1):
            k = r - g
            c = Rat((-1) ** k * (1 << g), 12 ** k * math.factorial(k))
            for mu, v in term.items():
                acc[r][mu] = acc[r].get(mu, 0) + c * v
            if r < r_top:
                term = _ribbons(term, n)
    return {r: {mu: v for mu, v in p.items() if v} for r, p in acc.items()}


def wn_det_truncated(n, g_max, dtable=None):
    """All correlators of genus <= g_max from the determinant of the matrix

        F_ij(nu) = sum_k GammaRatio_i(nu, k) / (k! 12^k) h_{L_i(nu)-(n-j)+3k}

    split by homogeneous degree, as {g: Correlator}.  Each entry's k-sum is
    truncated exactly where contributions stop reaching degree
    <= 3 g_max - 3 + n."""
    if n < 3:
        raise ValueError("correlator tables start at n = 3")
    if dtable is None:
        dtable = DTable()
    top = min(g_max, r_max(n))
    dtable.ensure_upto(top, n)
    acc = SymPoly.zero(n, MONOMIAL)
    for r in range(top + 1):
        kcap = g_max - r
        for nu, dv in dtable.get(r, n).items():
            lnu = hook_numbers(nu, n)
            rows = []
            for i in range(1, n + 1):
                li = lnu[i - 1]
                row = []
                for j in range(1, n + 1):
                    entry = SymPoly.zero(n, MONOMIAL)
                    for k in range(kcap + 1):
                        deg = li - (n - j) + 3 * k
                        if deg < 0:
                            continue
                        gam = gamma_half_ratio(5 - 2 * i, li - n + 3 * k + i)
                        c = gam / (math.factorial(k) * Rat(12) ** k)
                        entry = entry + scale(complete_homogeneous(deg, n), c)
                    row.append(entry)
                rows.append(row)
            acc = acc + scale(_sym_laplace_det(rows), dv)
    out = {}
    for g in range(g_max + 1):
        d = degree_rn(g, n)
        piece = SymPoly(n, MONOMIAL, {k: v for k, v in acc.terms.items() if sum(k) == d})
        out[g] = Correlator(g, n, piece.change_basis(SCHUR).terms)
    return out


def count_exact_length(n, r):
    """The partitions of exactly r parts in [2, n] and weight at most
    3r - 3 + n, by enumerating every weight and keeping length r."""
    count = 0
    for w in range(degree_rn(r, n) + 1):
        for nu in enumerate_partitions_recursive(w, r, 2, n):
            if len(nu) == r:
                count += 1
    return count


def build_parser():
    top = argparse.ArgumentParser(
        prog="wk",
        description="Exact Witten-Kontsevich intersection numbers and their generating polynomials.",
    )
    top.add_argument("--cache-dir", default=default_cache_dir(), help="coefficient cache directory (env WK_CACHE_DIR)")
    top.add_argument("--format", choices=("human", "tsv"), default="human")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="one intersection number")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--powers", required=True, help="comma-separated tau indices, e.g. 0,0,3")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("agn", help="generating polynomial A_{g,n}")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--basis", choices=sorted(BASIS_NAMES), default="monomial")
    p.set_defaults(func=cmd_agn)

    p = sub.add_parser("pn", help="homogeneous component P_{r,n}")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--basis", choices=sorted(BASIS_NAMES), default="schur")
    p.set_defaults(func=cmd_pn)

    p = sub.add_parser("dtable", help="write/refresh the coefficient-table cache")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--r-max", type=int, default=None)
    p.set_defaults(func=cmd_dtable)

    p = sub.add_parser("verify", help="closed formula against the recursion oracle")
    p.add_argument("--g-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("elo", help="appearing vs allowed elementary-basis support")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--r-max", type=int, default=None)
    p.set_defaults(func=cmd_elo)

    p = sub.add_parser("bench", help="formula vs oracle timing table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--g-max", type=int, default=6)
    p.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    p.set_defaults(func=cmd_bench)

    return top
