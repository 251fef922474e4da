"""Independent ground truth for intersection numbers.

The Dijkgraaf-Verlinde-Verlinde (Virasoro) recursion pins every value
from the two seeds <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24; this module
evaluates it with aggressive memoization and supplies the generating
polynomials the coefficient tables are built from.  Exact truncations of
the classical one-, two- and three-point series give further independent
anchors.  The series run on the integer LaurentPoly of :mod:`laurent`
(exponents doubled), over one denominator per polynomial, every product
drops the terms above the genus it is asked for as it is formed, and
``_from_exponent_poly`` collects each genus piece into the monomial basis.

The memo holds integers.  For d sorted in descending order it stores

    T(g, d) = 2^(4g-2+n) prod_i (2 d_i + 1)!! <tau_{d_1} ... tau_{d_n}>_g.

The double factorials turn every DVV coefficient into an integer except
one 1/2, and the exponent 4g-2+n, additive under both splittings,
absorbs that 1/2 and the seed 1/24 (T(0, (0,0,0)) = 2, T(1, (1,)) = 1).
Three pivots reduce an index:

* string (last index 0): T = 2 sum_v mult (2v+1) T(g, d with v -> v-1);
* dilaton (last index 1, no zeros): T(g, S u {1}) = 6 (2g-3+n) T(g, S);
* DVV on one index piv = k+1: T = sum_v 2 mult (2v+1) T(g, S with v -> v+k)
  + 4 sum_{a+b=k-1} T(g-1, S u {a,b})
  + sum_{a+b=k-1} sum_{I u J = S} T(g1, I u {a}) T(g2, J u {b}).

An index is held as its positive parts, sorted in descending order, and
a count z of zeros: the memo key is the flat tuple (g, z) + parts.  A
string step lowers the last copy of each distinct part (lowering a 1
leaves z as it is: the new zero takes the place of the one the step
removed), so it costs O(len(parts)) however
many zeros there are, and each frame holds a key of that length.  The
depth is unchanged: one frame per string step, so the genus-0 index
(n - 3, 0, ..., 0) still nests n - 3 frames deep and meets Python's
recursion limit near n = 1000.

DVV holds at any marked point, so only the cost depends on the pivot.
Once string and dilaton have removed the 0s and 1s it pivots on the
smallest index, whose split sums are the shortest and whose new points
are the smallest.  The tests compare it with an independent recursion
that always pivots on the largest index.

``Fraction`` appears only at the edge: ``virasoro_tau`` and
``a_gn_oracle`` divide each T by its scale once.  ``integer_class`` hands
the table bootstrap the integers T themselves, over the partitions it
reads (lam_1 <= 3n - 6), and ``a_gn_oracle`` is that class without a cap.
"""

import math
from itertools import permutations

from .rational import Rat, dden, double_factorial_odd_int
from .partitions import enumerate_partitions, partition_class, ptrim, z_factor
from .laurent import LaurentPoly, exp_p3
from .sympoly import MONOMIAL, SymPoly

_MEMO = {}


def clear_memo():
    _MEMO.clear()


def dim_target(g, n):
    """Required total degree 3g - 3 + n."""
    return 3 * g - 3 + n


def require_stable(g, n):
    """Raise ValueError unless g >= 0, n >= 1 and 2g - 2 + n > 0."""
    if g < 0:
        raise ValueError("negative genus %d" % g)
    if n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("inadmissible (g, n) = (%d, %d)" % (g, n))


def _splits(rest):
    """All ordered sub-multiset splits (I1, I2) of a sorted tuple together
    with the number of index subsets realizing each, as
    (sum1, count1, I1, I2, ways); I1 and I2 come out sorted like rest."""
    out = [(0, 0, (), (), 1)]
    for v in sorted(set(rest), reverse=True):
        m = rest.count(v)
        out = [
            (s1 + t * v, c1 + t, i1 + (v,) * t, i2 + (v,) * (m - t), ways * math.comb(m, t))
            for s1, c1, i1, i2, ways in out
            for t in range(m + 1)
        ]
    return out


def _scale(g, d):
    """2^(4g-2+n) prod_i (2 d_i + 1)!!, the factor T(g, d) carries."""
    return dden(d) << (4 * g - 2 + len(d))


def _sorted(t):
    return tuple(sorted(t, reverse=True))


def _t(g, z, parts):
    """Memoized integer core T(g, parts + (0,) * z); parts is a sorted-
    descending tuple of positive indices and z the number of zeros."""
    key = (g, z) + parts
    val = _MEMO.get(key)
    if val is not None:
        return val
    n = z + len(parts)
    if 2 * g - 2 + n <= 0 or sum(parts) != dim_target(g, n):
        return 0
    if g == 0 and z == 3 and not parts:
        return 2
    if g == 1 and z == 0 and parts == (1,):
        return 1

    if z:
        # string equation: lower the last copy of each value, so the parts
        # stay sorted; a 1 lowered to 0 replaces the zero the step removed
        total = 0
        first = 0
        last = len(parts) - 1
        for j, v in enumerate(parts):
            if j < last and parts[j + 1] == v:
                continue
            m = j + 1 - first
            first = j + 1
            if v > 1:
                total += m * (2 * v + 1) * _t(g, z - 1, parts[:j] + (v - 1,) + parts[j + 1 :])
            else:
                total += m * 3 * _t(g, z, parts[:j])
        total *= 2
        _MEMO[key] = total
        return total

    rest = parts[:-1]
    if parts[-1] == 1:
        # dilaton equation
        total = 6 * (2 * g - 3 + n) * _t(g, 0, rest)
        _MEMO[key] = total
        return total

    # DVV on the smallest index, at least 2 here; the new points a and
    # piv - 2 - a may be 0 and then join the zero count
    piv = parts[-1]
    total = 0

    # join terms
    for j, v in enumerate(rest):
        if j + 1 < len(rest) and rest[j + 1] == v:
            continue
        sub = _sorted(rest[:j] + (piv + v - 1,) + rest[j + 1 :])
        total += 2 * rest.count(v) * (2 * v + 1) * _t(g, 0, sub)

    # one connected surface of genus g-1
    if g >= 1:
        for a in range(piv - 1):
            new = tuple(x for x in (a, piv - 2 - a) if x)
            total += 4 * _t(g - 1, 2 - len(new), _sorted(rest + new))
    # splittings into two stable pieces, a + b = piv - 2: the genus of
    # each side is forced by its degree count, 3 g1 = a + s1 - c1 + 2
    # with 0 <= g1 <= g, so a runs over one residue class mod 3
    for s1, c1, i1, i2, ways in _splits(rest):
        lo = c1 - s1 - 2
        for a in range(lo if lo >= 0 else lo % 3, min(piv - 2, 3 * g + lo) + 1, 3):
            g1 = (a - lo) // 3
            t1 = _t(g1, 0, _sorted(i1 + (a,))) if a else _t(g1, 1, i1)
            if not t1:
                continue
            b = piv - 2 - a
            t2 = _t(g - g1, 0, _sorted(i2 + (b,))) if b else _t(g - g1, 1, i2)
            if t2:
                total += ways * t1 * t2

    _MEMO[key] = total
    return total


def _tn(g, d):
    """T(g, d) for a sorted-descending tuple d, zeros included."""
    z = d.count(0)
    return _t(g, z, d[: len(d) - z])


def virasoro_tau(g, d):
    """<tau_{d_1} ... tau_{d_n}>_g via the recursion; exact Rat."""
    d = tuple(d)
    n = len(d)
    require_stable(g, n)
    if any(x < 0 for x in d):
        raise ValueError("negative tau index in %r" % (d,))
    d = _sorted(d)
    return Rat(_tn(g, d), _scale(g, d))


def integer_class(g, n, cap=None):
    """(2^(4g-2+n), {lam padded to n parts: T(g, lam)}) over the partitions
    lam of 3g - 3 + n with lam_1 <= cap (all of them without a cap) and
    T != 0: the integer form of A_{g,n}, whose coefficient of m_lam is
    T(g, lam) / (2^(4g-2+n) prod_i (2 lam_i + 1)!!)."""
    require_stable(g, n)
    d = dim_target(g, n)
    terms = {}
    for lam in partition_class(d, n) if cap is None else enumerate_partitions(d, n, max_part=cap):
        t = _t(g, n - len(lam), lam)
        if t:
            terms[lam + (0,) * (n - len(lam))] = t
    return 1 << (4 * g - 2 + n), terms


def a_gn_oracle(g, n):
    """The generating polynomial in the monomial basis: coefficients are
    the intersection numbers themselves."""
    _, terms = integer_class(g, n)
    return SymPoly._make(
        n, MONOMIAL, {ptrim(lam): Rat(t, _scale(g, lam)) for lam, t in terms.items()}
    )


# ---------------------------------------------------------------------------
# Reference series for n = 1, 2, 3
# ---------------------------------------------------------------------------


def _genus_pieces(acc, g_max):
    """{g: the degree-3g piece of e^{p_3/12} acc over 2^g}, g <= g_max: for
    a series (e^{p_3/12}/2) acc this is A_g times the e_1 it may still hold.
    The product drops every term above degree 3 g_max as it is formed."""
    cap = 6 * g_max
    total = acc.mul(exp_p3(acc.n, 1, cap), cap)
    out = {g: {} for g in range(g_max + 1)}
    for k, v in total.terms.items():
        out[sum(k) // 6][k] = v
    return {g: LaurentPoly(acc.n, t, total.den << g) for g, t in out.items()}


def _from_exponent_poly(poly):
    """Collect a symmetric LaurentPoly into the monomial basis, halving its
    exponents.  Raises ValueError on an odd or negative exponent and unless
    every orbit is present with one coefficient."""
    n = poly.n
    reps = {}
    seen = {}
    for k, v in poly.terms.items():
        if any(e % 2 or e < 0 for e in k):
            raise ValueError("not a polynomial in u: exponent %r" % (k,))
        lam = ptrim(sorted((e // 2 for e in k), reverse=True))
        seen[lam] = seen.get(lam, 0) + 1
        if reps.setdefault(lam, v) != v:
            raise ValueError("polynomial is not symmetric")
    if any(count * z_factor(lam, n) != math.factorial(n) for lam, count in seen.items()):
        raise ValueError("polynomial is not symmetric")
    return SymPoly(n, MONOMIAL, {lam: Rat(v, poly.den) for lam, v in reps.items()})


def series_one_point(g_max):
    """Per-genus pieces of the one-point series e^{p3/12} / (2 e_1^2)."""
    exp = exp_p3(1, 1, 6 * g_max)
    # dividing by u^2 shifts degree 3g to 3g - 2
    return {
        g: SymPoly(1, MONOMIAL, {(3 * g - 2,): Rat(exp.terms[6 * g,], exp.den << g)})
        for g in range(1, g_max + 1)
    }


def series_two_point(g_max):
    """Per-genus pieces of the two-point series
    e^{p3/12}/2 * sum_k (e_2/2)^k e_1^(k-1) / (2k+1)!!, extracted from its
    e_1-multiplied polynomial form.  (The 2^-k is essential: without it the
    genus-1 piece already contradicts the closed form (e_1^2 - e_2)/24.)"""
    n = 2
    cap = 6 * g_max
    e1 = LaurentPoly(n, {(2, 0): 1, (0, 2): 1})
    e1e2 = LaurentPoly(n, {(4, 2): 1, (2, 4): 1})
    den = double_factorial_odd_int(2 * g_max + 1) << g_max
    # each (e_1 e_2)^k is homogeneous of doubled degree 6k, so no key repeats
    terms = {(0, 0): den}
    term = LaurentPoly.constant(n, 1)
    for k in range(1, g_max + 1):
        term = term.mul(e1e2, cap)
        w = den // (double_factorial_odd_int(2 * k + 1) << k)
        terms.update((key, w * c) for key, c in term.terms.items())
    pieces = _genus_pieces(LaurentPoly(n, terms, den), g_max)
    return {g: _from_exponent_poly(pieces[g].divide_exact(e1)) for g in range(1, g_max + 1)}


def zagier_s_polynomial(r):
    """The degree-3r symmetric polynomial
    [ (u1 u2)^r (u1+u2)^(r+1) + cyclic ] / (u1+u2+u3), by exact division;
    a LaurentPoly in integers (exponents doubled)."""
    num = {}
    for i, j in ((0, 1), (1, 2), (0, 2)):
        for a in range(r + 2):
            key = [0, 0, 0]
            key[i] = 2 * (r + a)
            key[j] = 2 * (2 * r + 1 - a)
            key = tuple(key)
            num[key] = num.get(key, 0) + math.comb(r + 1, a)
    e1 = LaurentPoly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    return LaurentPoly(3, num).divide_exact(e1)


def series_three_point(g_max):
    """Per-genus pieces of the three-point series
    e^{p3/12}/2 * sum_{r,s} r! S_r / (2^{r+1} (2r+1)!!) * Delta^s / (4^s (r+s+1)!)
    with Delta = (u1+u2)(u2+u3)(u1+u3)."""
    n = 3
    cap = 6 * g_max
    delta = LaurentPoly(n, {(2, 2, 2): 2, **{k: 1 for k in permutations((4, 2, 0))}})
    weights = {
        (r, s): Rat(
            math.factorial(r),
            (2 << r) * double_factorial_odd_int(2 * r + 1) * (4**s) * math.factorial(r + s + 1),
        )
        for r in range(g_max + 1)
        for s in range(g_max + 1 - r)
    }
    den = math.lcm(*(w.denominator for w in weights.values()))
    terms = {}
    for r in range(g_max + 1):
        term = zagier_s_polynomial(r)
        for s in range(g_max + 1 - r):
            w = weights[r, s]
            w = w.numerator * (den // w.denominator)
            for key, c in term.terms.items():
                terms[key] = terms.get(key, 0) + w * c
            term = term.mul(delta, cap)
    pieces = _genus_pieces(LaurentPoly(n, terms, den), g_max)
    return {g: _from_exponent_poly(piece) for g, piece in pieces.items()}


def series_reference(which, g_max):
    """Truncated classical series for n = 1, 2, 3: {genus: SymPoly}."""
    if which == "A1":
        return series_one_point(g_max)
    if which == "A2":
        return series_two_point(g_max)
    if which == "A3":
        return series_three_point(g_max)
    raise ValueError("unknown series %r" % (which,))
