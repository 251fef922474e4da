"""Exact rational scalars and the odd double factorial.

Every value produced by this library is an exact rational; no floating
point enters any computation path.  ``Rat`` is the standard library's
``Fraction``: the hot paths run on plain ints and build one ``Rat`` per
emitted coefficient, so the scalar type is not where the time goes.  It
keeps values in canonical form (coprime, positive denominator) with the
textual format used throughout: ``p/q``, plain ``p`` when the denominator
is 1, the sign on the numerator.  ``double_factorial_odd_int`` gives
(2k + 1)!!, and ``dden`` prod_i (2 d_i + 1)!!, the monomial-side weight
of :mod:`hop` that the oracle's integer scale carries too.
"""

from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


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


def dden(parts):
    """prod_i (2 d_i + 1)!! over the entries d_i >= 0 of an index."""
    v = 1
    for d in parts:
        if d:
            v *= double_factorial_odd_int(2 * d + 1)
    return v
