import math
import random
import tracemalloc

import pytest

from brute import closed_a0n, closed_a1n, dvv_fraction, dvv_integer, evaluate
from wkintersect.rational import Rat, dden
from wkintersect.partitions import partition_class, ptrim
from wkintersect import intersect, oracle
from wkintersect.sympoly import MONOMIAL


def test_base_values():
    assert oracle.virasoro_tau(0, (0, 0, 0)) == 1
    assert oracle.virasoro_tau(1, (1,)) == Rat(1, 24)
    assert oracle.virasoro_tau(1, (0, 2)) == Rat(1, 24)
    assert oracle.virasoro_tau(2, (4,)) == Rat(1, 1152)
    assert oracle.virasoro_tau(0, (1, 0, 0, 0)) == 1
    assert oracle.virasoro_tau(1, (1, 1)) == Rat(1, 24)
    assert oracle.virasoro_tau(1, (1, 1, 1)) == Rat(1, 12)


def test_weight_mismatch_gives_zero():
    assert oracle.virasoro_tau(0, (1, 1, 1)) == 0
    assert oracle.virasoro_tau(2, (0,)) == 0


def test_inadmissible_raises():
    with pytest.raises(ValueError):
        oracle.virasoro_tau(0, (0, 0))
    with pytest.raises(ValueError):
        oracle.virasoro_tau(0, ())
    with pytest.raises(ValueError):
        oracle.virasoro_tau(1, (-1, 2))


def test_negative_genus_is_a_domain_error():
    # every stable-looking (2g - 2 + n > 0) index with g < 0 is refused by
    # name, in the oracle and in the formula's entry points alike
    for call in (
        lambda: oracle.virasoro_tau(-1, (0,) * 5),
        lambda: oracle.a_gn_oracle(-1, 5),
        lambda: oracle.integer_class(-1, 5),
        lambda: intersect.tau(-1, (0,) * 5),
        lambda: intersect.a_gn(-1, 5),
        lambda: intersect.w_gn(-1, 5),
    ):
        with pytest.raises(ValueError, match="negative genus -1"):
            call()


def test_permutation_symmetry():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(3, 5)
        g = rng.randint(0, 3)
        if 2 * g - 2 + n <= 0:
            continue
        cls = partition_class(3 * g - 3 + n, n)
        lam = cls[rng.randrange(len(cls))]
        full = list(lam + (0,) * (n - len(lam)))
        want = oracle.virasoro_tau(g, tuple(full))
        rng.shuffle(full)
        assert oracle.virasoro_tau(g, tuple(full)) == want


def _indices(n, g_max):
    for g in range(g_max + 1):
        if 2 * g - 2 + n > 0:
            for lam in partition_class(3 * g - 3 + n, n):
                yield g, lam + (0,) * (n - len(lam))


def _sweep():
    for n in range(1, 6):
        yield from _indices(n, 8 if n <= 2 else 3)


def test_pivot_independence_on_whole_classes():
    # the oracle's smallest-index DVV pivot (after string and dilaton)
    # against an integer DVV recursion on the largest index, on every index
    # of n = 5, g <= 8
    sweep = list(_indices(5, 8))
    assert len(sweep) == 1163
    oracle.clear_memo()
    smallest = [oracle._tn(g, d) for g, d in sweep]
    memo = {}
    largest = [dvv_integer(g, d, memo) for g, d in sweep]
    assert smallest == largest
    assert all(smallest)


def test_matches_fraction_dvv():
    # a plain Fraction DVV recursion, largest-index pivot only
    memo = {}
    for g, d in _sweep():
        assert oracle.virasoro_tau(g, d) == dvv_fraction(g, d, memo), (g, d)


def test_string_equation():
    # on the DVV recursion without string or dilaton shortcuts
    memo = {}
    for n in range(1, 5):
        for g, d in _indices(n, 4):
            want = sum(
                dvv_fraction(g, d[:j] + (v - 1,) + d[j + 1 :], memo)
                for j, v in enumerate(d)
                if v
            )
            assert dvv_fraction(g, d + (0,), memo) == want, (g, d)


def test_dilaton_equation():
    memo = {}
    for n in range(1, 5):
        for g, d in _indices(n, 4):
            want = (2 * g - 2 + n) * dvv_fraction(g, d, memo)
            assert dvv_fraction(g, d + (1,), memo) == want, (g, d)


def test_integer_core():
    # T(g, d) = 2^(4g-2+n) prod (2 d_i + 1)!! <tau_d>_g is an int
    for g, d in _sweep():
        t = oracle._tn(g, d)
        assert type(t) is int
        scale = 2 ** (4 * g - 2 + len(d)) * math.prod(
            math.prod(range(2 * x + 1, 0, -2)) for x in d
        )
        assert Rat(t, scale) == oracle.virasoro_tau(g, d), (g, d)


def test_deep_genus_zero_string_chain():
    # one frame per string step: (897, 0^899) nests 897 deep, which still
    # fits under the default recursion limit with pytest's frames above it
    oracle.clear_memo()
    assert oracle.virasoro_tau(0, (897,) + (0,) * 899) == 1


def test_string_step_memory_does_not_grow_with_the_zero_count():
    # each memo key and frame holds the positive parts and a zero count,
    # not the whole index: 600 frames of a 600-point index stay small
    oracle.clear_memo()
    tracemalloc.start()
    try:
        assert oracle.virasoro_tau(0, (597,) + (0,) * 599) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _ones_and_zeros(rng, n):
    # a composition of n - 3 into n parts: at least two thirds of the
    # weight in 1s, the rest on two larger parts, zeros elsewhere
    ones = rng.randint(2 * (n - 3) // 3, n - 3)
    d = [1] * ones + [0] * (n - ones)
    for _ in range(n - 3 - ones):
        d[rng.randrange(2)] += 1
    rng.shuffle(d)
    return tuple(d)


def test_genus_zero_multinomial_with_many_ones_and_zeros():
    # <tau_d>_0 = (n-3)! / prod d_i!; lowering a 1 turns it into a zero
    rng = random.Random(19)
    for n in (12, 40, 120):
        for _ in range(4):
            d = _ones_and_zeros(rng, n)
            assert d.count(1) and d.count(0)
            want = Rat(math.factorial(n - 3), math.prod(math.factorial(x) for x in d))
            assert oracle.virasoro_tau(0, d) == want, d


def test_closed_genus_zero():
    for n in range(3, 8):
        assert oracle.a_gn_oracle(0, n) == closed_a0n(n).change_basis(MONOMIAL)


def test_closed_genus_one():
    assert closed_a1n(1).terms == {(1,): Rat(1, 24)}
    assert closed_a1n(2).terms == {(1, 1): Rat(1, 24), (2,): Rat(-1, 24)}
    for n in range(1, 7):
        assert oracle.a_gn_oracle(1, n) == closed_a1n(n).change_basis(MONOMIAL)


def test_one_point_series():
    ref = oracle.series_reference("A1", 14)
    for g in range(1, 15):
        want = Rat(1, 24 ** g * math.factorial(g))
        assert ref[g].terms == {(3 * g - 2,): want}
        assert oracle.a_gn_oracle(g, 1).terms == {(3 * g - 2,): want}


def test_two_point_series():
    ref = oracle.series_reference("A2", 5)
    for g in range(1, 6):
        assert ref[g] == oracle.a_gn_oracle(g, 2)


def test_three_point_series():
    ref = oracle.series_reference("A3", 4)
    assert ref[0].terms == {(): 1}
    for g in range(0, 5):
        assert ref[g] == oracle.a_gn_oracle(g, 3)


def test_unknown_series_rejected():
    with pytest.raises(ValueError):
        oracle.series_reference("A4", 2)


def test_s_polynomial_integrality():
    for r in range(0, 9):
        sr = oracle.zagier_s_polynomial(r)
        assert sr.den == 1
        for k, v in sr.terms.items():
            assert sum(k) == 6 * r  # doubled exponents
            assert isinstance(v, int), (r, k, v)


def test_s_polynomial_values():
    s0 = oracle.zagier_s_polynomial(0)
    assert (s0.terms, s0.den) == ({(0, 0, 0): 2}, 1)
    # S_1 at (1,1,1): [(1)(4) * 3] / 3 = 4
    assert evaluate(oracle.zagier_s_polynomial(1), (1, 1, 1)) == 4


def test_a_gn_oracle_dimension_support():
    for g, n in ((0, 4), (1, 3), (2, 3), (1, 5)):
        poly = oracle.a_gn_oracle(g, n)
        assert all(sum(k) == 3 * g - 3 + n for k in poly.terms)
        assert all(v > 0 for v in poly.terms.values())


def test_integer_class_capped_at_the_box_read():
    # the bootstrap's read set: T(g, lam) over lam_1 <= 3n - 6, padded to n
    # parts, against virasoro_tau times 2^(4g-2+n) prod (2 lam_i + 1)!!
    for g, n in ((3, 4), (6, 5), (5, 6)):
        cap = 3 * n - 6
        scale, full = oracle.integer_class(g, n)
        assert scale == 2 ** (4 * g - 2 + n)
        want = {}
        for lam in partition_class(3 * g - 3 + n, n):
            d = lam + (0,) * (n - len(lam))
            dfact = math.prod(math.prod(range(2 * x + 1, 0, -2)) for x in d)
            t = oracle.virasoro_tau(g, d) * scale * dfact
            assert t.denominator == 1
            if t:
                want[d] = int(t)
        assert full == want
        assert {lam: oracle.a_gn_oracle(g, n).terms[ptrim(lam)] * scale * dden(lam)
                for lam in full} == full
        _, capped = oracle.integer_class(g, n, cap)
        assert capped == {lam: t for lam, t in full.items() if lam[0] <= cap}
        assert len(capped) < len(full)
