"""Exact rational scalars and the factorial-type helpers built on them.

Every value produced by this library is an exact rational; no floating
point enters any computation path.  ``Rat`` is the standard library's
``Fraction``: the hot paths run on plain ints and build one ``Rat`` per
emitted coefficient, so the scalar type is not where the time goes.  It
keeps values in canonical form (coprime, positive denominator) with the
textual format used throughout: ``p/q``, plain ``p`` when the denominator
is 1, the sign on the numerator.
"""

import math
from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def rat_from_str(text):
    """Parse the canonical ``p/q`` / ``p`` form back into a Rat."""
    return Rat(text.strip())


def factorial(k):
    """k! as an integer-valued Rat.  Raises on negative input."""
    if k < 0:
        raise ValueError("factorial of negative integer %r" % (k,))
    return Rat(math.factorial(k))


def double_factorial_odd_int(k):
    """k!! as a plain int for odd k >= -3.

    The two negative values are fixed by Gamma-function consistency:
    (-1)!! = 1 and (-3)!! = -1.
    """
    if k % 2 == 0:
        raise ValueError("double factorial wants an odd argument, got %r" % (k,))
    if k < -3:
        raise ValueError("double factorial undefined below -3, got %r" % (k,))
    if k == -3:
        return -1
    p = 1
    while k > 1:
        p *= k
        k -= 2
    return p


def double_factorial_odd(k):
    """k!! as a Rat, odd k >= -3 (see double_factorial_odd_int)."""
    return Rat(double_factorial_odd_int(k))


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
