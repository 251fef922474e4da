"""Brute-force reference implementations the fast code is checked against.

Everything here is deliberately naive: direct tableau enumeration,
permutation sums, exponent-level polynomial division.  None of it shares
code with the production paths.
"""

from fractions import Fraction
from itertools import permutations

from wkintersect.rational import RAT_ONE, Rat
from wkintersect.partitions import hook_numbers
from wkintersect.sympoly import ExponentPoly, SymPoly, MONOMIAL


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
    out = ExponentPoly.constant(n, 1)
    for i in range(n):
        for j in range(i + 1, n):
            ei = [0] * n
            ei[i] = 1
            ej = [0] * n
            ej[j] = 1
            diff = ExponentPoly(n, {tuple(ei): RAT_ONE, tuple(ej): Rat(-1)})
            out = out * diff
    return out


def bialternant_schur(lam, n):
    """Schur polynomial as det(u_i^{L_j}) / Vandermonde, fully expanded."""
    L = hook_numbers(lam, n)
    num = ExponentPoly(n)
    for sigma in permutations(range(n)):
        key = tuple(L[sigma[i]] for i in range(n))
        c = Rat(_perm_sign(tuple(s + 1 for s in sigma)))
        num = num + ExponentPoly(n, {key: c})
    quotient = num.divide_exact(vandermonde_exponent_poly(n))
    return quotient.to_monomial_sympoly()


def jacobi_trudi_schur(lam, n):
    """Schur polynomial as the determinant of complete homogeneous pieces."""
    L = hook_numbers(lam, n)
    rows = []
    for i in range(n):
        rows.append(
            [SymPoly.complete_homogeneous(L[i] - (n - 1 - j), n) for j in range(n)]
        )
    return _sym_laplace_det(rows)


def _sym_laplace_det(rows):
    n = len(rows)
    nvars = rows[0][0].n

    def rec(rs, cols):
        if not cols:
            return SymPoly.one(nvars)
        total = SymPoly.zero(nvars, MONOMIAL)
        i = rs[0]
        for idx, j in enumerate(cols):
            entry = rows[i][j]
            if entry.is_zero():
                continue
            term = entry * rec(rs[1:], cols[:idx] + cols[idx + 1 :])
            total = total + (term if idx % 2 == 0 else -term)
        return total

    return rec(tuple(range(n)), tuple(range(n)))


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
