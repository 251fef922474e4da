import math
import random

import pytest

from brute import gamma_half_ratio
from wkintersect.rational import Rat, double_factorial_odd_int


def test_double_factorial_values():
    assert double_factorial_odd_int(5) == 15
    assert double_factorial_odd_int(-1) == 1
    assert double_factorial_odd_int(-3) == -1
    assert double_factorial_odd_int(1) == 1
    assert double_factorial_odd_int(9) == 945


def test_double_factorial_rejects_bad_input():
    with pytest.raises(ValueError):
        double_factorial_odd_int(4)
    with pytest.raises(ValueError):
        double_factorial_odd_int(-5)


def test_double_factorial_matches_factorial_quotient():
    for m in range(0, 12):
        assert double_factorial_odd_int(2 * m + 1) == math.factorial(2 * m + 1) // (
            (1 << m) * math.factorial(m)
        )


def test_gamma_half_ratio_values():
    assert gamma_half_ratio(3, 1) == Rat(3, 2)
    assert gamma_half_ratio(3, 0) == 1
    assert gamma_half_ratio(-1, 2) == Rat(-1, 4)


def test_gamma_half_ratio_rejects_even():
    with pytest.raises(ValueError):
        gamma_half_ratio(4, 1)


def test_gamma_half_ratio_composition():
    rng = random.Random(11)
    for _ in range(200):
        a = 2 * rng.randint(-6, 6) + 1
        s = rng.randint(-5, 5)
        t = rng.randint(-5, 5)
        assert gamma_half_ratio(a, s + t) == gamma_half_ratio(a, s) * gamma_half_ratio(
            a + 2 * s, t
        )


def test_field_axioms_on_random_samples():
    rng = random.Random(5)

    def rnd():
        return Rat(rng.randint(-40, 40), rng.randint(1, 40))

    for _ in range(300):
        a, b, c = rnd(), rnd(), rnd()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if c:
            assert (a / c) * c == a


def test_canonical_text_round_trip():
    for s in ("3/2", "-1/4", "5", "0", "-7"):
        assert str(Rat(s)) == s
    # non-canonical input normalizes
    assert str(Rat("4/8")) == "1/2"
    assert str(Rat("-4/8")) == "-1/2"
