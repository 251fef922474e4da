"""Multivariate Laurent-type polynomials on the half-integer exponent
lattice, with exact derivative calculus in integers: the one polynomial
type of the package.

Exponents are stored doubled, so ``u1^(3/2)`` carries 3 in the first
slot.  This holds for every key everywhere: ``SymPoly.to_exponent_poly``
doubles the exponents of the monomials it expands, and
``SymPoly.from_exponent_poly`` halves them on the way back and rejects an
odd one.  A polynomial holds integer coefficients over one denominator:
the value is sum_k terms[k] u^(k/2) / den.  Products multiply
denominators, a derivative multiplies each coefficient by its doubled
exponent and doubles the denominator, and a sum brings both sides over
the lcm, so no loop builds a rational; the caller divides once per
coefficient it keeps.  A product may drop every term above a doubled
degree, which is how the truncated series (the direct route's
exp(+-p_3/12), the oracle's classical series) stay finite.

The direct determinantal computation works entirely in this
representation and finishes by antisymmetrizing, which collapses a
polynomial into signed "alternant classes" (strictly decreasing exponent
vectors, held in a LaurentPoly of their own); dividing an alternant by the
Vandermonde is then index arithmetic instead of actual polynomial
division.  ``divide_exact`` is the actual division, for the few places
that need it (e_1 in the series, the Vandermonde in the tests).
"""

import math
from fractions import Fraction
from itertools import combinations
from operator import add


class LaurentPoly:
    """Sparse terms: doubled-exponent tuple -> int, all over ``den``."""

    __slots__ = ("n", "terms", "den")

    def __init__(self, n, terms=None, den=1):
        self.n = n
        self.terms = {} if terms is None else terms
        self.den = den

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(0,) * n: value} if value else {})

    @classmethod
    def variable_power(cls, n, i, doubled_exp, coeff=1):
        key = tuple(doubled_exp if j == i else 0 for j in range(n))
        return cls(n, {key: coeff})

    def _combine(self, other, sign):
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        terms = {k: fa * v for k, v in self.terms.items()}
        get = terms.get
        for k, v in other.terms.items():
            terms[k] = get(k, 0) + fb * v
        return LaurentPoly(self.n, {k: v for k, v in terms.items() if v}, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def mul(self, other, cap_doubled=None):
        """Product; terms whose total doubled degree exceeds the cap are
        dropped (series-truncation semantics)."""
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        by_degree = sorted((sum(k), k, v) for k, v in b.items())
        out = {}
        get = out.get
        for ka, va in a.items():
            room = math.inf if cap_doubled is None else cap_doubled - sum(ka)
            for db, kb, vb in by_degree:
                if db > room:
                    break
                k = tuple(map(add, ka, kb))
                out[k] = get(k, 0) + va * vb
        return LaurentPoly(self.n, {k: v for k, v in out.items() if v}, self.den * other.den)

    def __mul__(self, other):
        return self.mul(other)

    def diff(self, i):
        """Exact d/du_i on half-integer powers: u^(e/2) -> (e/2) u^(e/2-1),
        the factor e on the coefficient and the 1/2 on the denominator."""
        out = {}
        for k, v in self.terms.items():
            e = k[i]
            if e:
                out[k[:i] + (e - 2,) + k[i + 1 :]] = e * v
        return LaurentPoly(self.n, out, 2 * self.den)

    def shift_all(self, doubled):
        """Multiply by prod_i u_i^(doubled/2)."""
        return LaurentPoly(
            self.n, {tuple(e + doubled for e in k): v for k, v in self.terms.items()}, self.den
        )

    def evaluate(self, point):
        """The exact value at a point of rationals; every exponent must be
        even (an integer power)."""
        if len(point) != self.n:
            raise ValueError("point length %d != %d variables" % (len(point), self.n))
        point = [Fraction(x) for x in point]
        total = 0
        for k, v in self.terms.items():
            if any(e % 2 for e in k):
                raise ValueError("half-integer power %r has no rational value" % (k,))
            for x, e in zip(point, k):
                if e:
                    v *= x ** (e // 2)
            total += v
        return Fraction(total) / self.den

    def divide_exact(self, divisor):
        """The polynomial quotient by a divisor whose lex-leading coefficient
        is +-1, by lex-ordered elimination in integers; raises ValueError for
        any other divisor and when the division leaves a remainder."""
        dlead = max(divisor.terms, default=None)
        if dlead is None or divisor.terms[dlead] not in (1, -1):
            raise ValueError("divisor must have leading coefficient +-1")
        dval = divisor.terms[dlead]
        rem = dict(self.terms)
        out = {}
        while rem:
            lead = max(rem)
            if any(l < d for l, d in zip(lead, dlead)):
                raise ValueError("inexact polynomial division")
            q = tuple(l - d for l, d in zip(lead, dlead))
            c = rem[lead] * dval
            out[q] = c
            for k, v in divisor.terms.items():
                kk = tuple(map(add, q, k))
                w = rem.get(kk, 0) - c * v
                if w:
                    rem[kk] = w
                else:
                    rem.pop(kk, None)
        return LaurentPoly(self.n, {k: v * divisor.den for k, v in out.items()}, self.den)


def exp_p3(n, sign, cap_doubled):
    """exp(sign * p_3 / 12) truncated at the doubled-degree cap, over the
    common denominator 12^K K! of its powers p_3^k / (12^k k!), k <= K."""
    top = cap_doubled // 6
    den = 12**top * math.factorial(top)
    p3 = LaurentPoly(n, {tuple(6 if j == i else 0 for j in range(n)): 1 for i in range(n)})
    term = LaurentPoly.constant(n, 1)
    terms = {(0,) * n: den}
    for k in range(1, top + 1):
        term = term * p3
        w = sign**k * (den // (12**k * math.factorial(k)))
        # p_3^k is homogeneous of doubled degree 6k, so no key repeats
        terms.update((key, w * c) for key, c in term.terms.items())
    return LaurentPoly(n, terms, den)


def _antisymmetrize(pairs, n, den):
    """Collect (exponent tuple, int) pairs into signed alternant classes:
    a key with a repeated entry cancels, any other adds its value, times
    the sign of the permutation sorting it descending, to its sorted key.
    That sign counts the index pairs i < j with key_i < key_j."""
    below = list(combinations(range(n), 2))
    out = {}
    get = out.get
    for k, v in pairs:
        if len(set(k)) != n:
            continue
        srt = tuple(sorted(k, reverse=True))
        out[srt] = get(srt, 0) + (-v if sum([k[i] < k[j] for i, j in below]) & 1 else v)
    return LaurentPoly(n, {k: v for k, v in out.items() if v}, den)


def antisym_classes(poly):
    """Antisymmetrize over all variable permutations, reported as signed
    alternant classes: a LaurentPoly over the same denominator keyed by
    strictly-decreasing doubled exponents."""
    return _antisymmetrize(poly.terms.items(), poly.n, poly.den)


def class_mul_symmetric(classes, sym, cap_doubled):
    """Multiply alternant classes by a symmetric LaurentPoly; re-antisymmetrizes
    the shifted classes, over the product of the two denominators.  Products
    whose total doubled degree exceeds the cap are dropped."""
    by_degree = sorted((sum(k), k, v) for k, v in sym.terms.items())

    def products():
        for ex, c in classes.terms.items():
            room = cap_doubled - sum(ex)
            for d, k, v in by_degree:
                if d > room:
                    break
                yield tuple(map(add, ex, k)), c * v

    return _antisymmetrize(products(), classes.n, classes.den * sym.den)
