import pytest

from wkintersect.laurent import LaurentPoly, antisym_classes, class_mul_symmetric
from wkintersect.rational import Rat


def _value(poly):
    """The polynomial's coefficients as exact rationals."""
    return {k: Rat(v, poly.den) for k, v in poly.terms.items()}


def test_derivative_of_half_integer_powers():
    # d/du u^(1/2) = u^(-1/2) / 2 and d/du u^(-1/2) = -u^(-3/2) / 2
    root = LaurentPoly.variable_power(1, 0, 1).diff(0)
    assert (root.terms, root.den) == ({(-1,): 1}, 2)
    inverse = LaurentPoly.variable_power(1, 0, -1).diff(0)
    assert (inverse.terms, inverse.den) == ({(-3,): -1}, 2)
    # the constant dies and the other slot is untouched
    p = LaurentPoly(2, {(0, 3): 4, (3, 1): 5}, 3).diff(0)
    assert _value(p) == {(1, 1): Rat(5, 2)}


def test_mul_truncates_at_its_cap():
    one_plus = LaurentPoly(2, {(0, 0): 1, (2, 0): 1, (0, 1): 1}, 2)
    full = one_plus.mul(one_plus)
    assert full.den == 4 and len(full.terms) == 6
    capped = one_plus.mul(one_plus, 2)
    # degree exactly at the cap stays, everything above it goes
    assert capped.terms == {(0, 0): 1, (0, 1): 2, (0, 2): 1, (2, 0): 2}
    assert capped.den == 4
    assert one_plus.mul(one_plus, -1).terms == {}


def test_antisym_classes_signs():
    # (0, 2, 4) sorts by one transposition, (2, 0, 4) by a 3-cycle; a repeated
    # exponent cancels and so does a pair of opposite permutations
    poly = LaurentPoly(3, {(0, 2, 4): 1, (2, 0, 4): 3, (1, 1, 0): 7, (5, 3, 1): 2, (3, 5, 1): 2}, 5)
    classes = antisym_classes(poly)
    assert classes.terms == {(4, 2, 0): 2}
    assert classes.den == 5


def test_class_mul_symmetric_signs():
    # a_(1,0) (1 + u1^2 + u2^2) = a_(1,0) + a_(3,0) - a_(2,1), in doubled
    # exponents
    classes = LaurentPoly(2, {(2, 0): 1}, 3)
    sym = LaurentPoly(2, {(0, 0): 1, (4, 0): 1, (0, 4): 1}, 2)
    full = class_mul_symmetric(classes, sym, 6)
    assert full.terms == {(2, 0): 1, (6, 0): 1, (4, 2): -1}
    capped = class_mul_symmetric(classes, sym, 5)
    assert (capped.terms, capped.den) == ({(2, 0): 1}, 6)
    # u1 + u2 only lifts the class: (2, 2) cancels
    e1 = LaurentPoly(2, {(2, 0): 1, (0, 2): 1})
    assert class_mul_symmetric(classes, e1, 4).terms == {(4, 0): 1}


def test_sums_over_one_denominator():
    # u/2 + u/3 = 5u/6: the denominator does not reduce to 1
    half = LaurentPoly(1, {(2,): 1}, 2)
    third = LaurentPoly(1, {(2,): 1}, 3)
    total = half + third
    assert (total.terms, total.den) == ({(2,): 5}, 6)
    assert _value(total) == {(2,): Rat(5, 6)}
    # a sum that cancels drops the term
    assert (half - LaurentPoly(1, {(2,): 2}, 4)).terms == {}


def test_evaluate_reads_doubled_exponents():
    # (3 u1^2 u2 - 1) / 4 at (1/2, 3): (9/4 - 1) / 4 = 5/16
    poly = LaurentPoly(2, {(4, 2): 3, (0, 0): -1}, 4)
    assert poly.evaluate((Rat(1, 2), 3)) == Rat(5, 16)
    with pytest.raises(ValueError):
        poly.evaluate((1,))
    # u^(1/2) has no rational value at a rational point
    with pytest.raises(ValueError):
        LaurentPoly(1, {(1,): 1}).evaluate((4,))


def test_divide_exact_keeps_the_denominators():
    # (u1^2 - u2^2) / 3 divided by (u1 + u2) / 2 is 2 (u1 - u2) / 3
    num = LaurentPoly(2, {(4, 0): 1, (0, 4): -1}, 3)
    quotient = num.divide_exact(LaurentPoly(2, {(2, 0): 1, (0, 2): 1}, 2))
    assert _value(quotient) == {(2, 0): Rat(2, 3), (0, 2): Rat(-2, 3)}
    # a leading coefficient -1 is a unit as well
    assert _value(num.divide_exact(LaurentPoly(2, {(2, 0): -1, (0, 2): -1}))) == {
        (2, 0): Rat(-1, 3),
        (0, 2): Rat(1, 3),
    }
