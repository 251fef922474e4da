import gc
import math
import os
import random
import tracemalloc

import pytest

from brute import closed_a1n, dominates, gamma_half_ratio, gnum_cells, laplace_det, mul, wn_det_truncated
from wkintersect.rational import Rat, dden
from wkintersect import hop, oracle, sympoly
from wkintersect.intersect import (
    Correlator,
    a_gn,
    q_coeff,
    tau,
    w_gn,
    _bareiss_det,
)
from wkintersect.partitions import partition_class
from wkintersect.pengine import DTable, degree_rn, r_max
from wkintersect.sympoly import (
    ELEMENTARY,
    MONOMIAL,
    SCHUR,
    SymPoly,
    kostka_column,
    shape_of_beads,
)


BENCH_TABLE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "dtable_n3-6.txt")


# -- determinants -------------------------------------------------------


def test_bareiss_matches_laplace_on_random_matrices():
    rng = random.Random(15)
    for size in (1, 2, 3, 4, 5):
        for _ in range(6):
            m = [
                [Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
                for _ in range(size)
            ]
            assert _bareiss_det(m) == laplace_det(m)


def test_bareiss_handles_zero_pivots():
    m = [[Rat(0), Rat(1)], [Rat(1), Rat(0)]]
    assert _bareiss_det(m) == -1
    m = [[Rat(0), Rat(1), Rat(2)], [Rat(0), Rat(0), Rat(3)], [Rat(4), Rat(5), Rat(6)]]
    assert _bareiss_det(m) == laplace_det(m) == 12


# -- Q coefficients ------------------------------------------------------


def test_q_coeff_examples():
    for n in (3, 4):
        for d in range(0, 4):
            for nu in partition_class(d, n):
                assert q_coeff(nu, nu, n) == 1
    assert q_coeff((), (1, 1, 1), 3) == 1
    assert q_coeff((), (2, 1), 3) == -1
    assert q_coeff((), (3,), 3) == 1
    assert q_coeff((1,), (2,), 3) == 0  # gap not a multiple of 3
    assert q_coeff((2, 1), (), 3) == 0  # negative gap


def test_q_coeff_is_inner_product_with_power_sum_cubes():
    # brute force through generic multiplication, independent of both the
    # determinant and the ribbon rule
    for n in (3, 4):
        p3 = SymPoly(n, MONOMIAL, {(3,): 1})
        for dnu in range(0, 4):
            for nu in partition_class(dnu, n):
                poly = SymPoly(n, SCHUR, {nu: 1}).change_basis(MONOMIAL)
                for k in range(0, 3):
                    dmu = dnu + 3 * k
                    schur = poly.change_basis(SCHUR)
                    for mu in partition_class(dmu, n):
                        want = schur.terms.get(mu, Rat(0)) / math.factorial(k)
                        assert q_coeff(nu, mu, n) == want, (nu, mu, n, k)
                    poly = mul(poly, p3)


# -- tau -----------------------------------------------------------------


def test_tau_examples(dtable):
    assert tau(0, (0, 0, 0), dtable) == 1
    assert tau(1, (1,), dtable) == Rat(1, 24)
    assert tau(0, (1, 0, 0, 0), dtable) == 1
    assert tau(2, (4,), dtable) == Rat(1, 1152)
    assert tau(1, (0, 0, 3), dtable) == oracle.virasoro_tau(1, (0, 0, 3))


def test_tau_zero_off_dimension(dtable):
    assert tau(0, (1, 1, 1), dtable) == 0
    assert tau(2, (1, 1, 1), dtable) == 0


def test_tau_validation(dtable):
    with pytest.raises(ValueError):
        tau(0, (0, 0), dtable)
    with pytest.raises(ValueError):
        tau(1, (-3,), dtable)


def test_tau_matches_oracle_small_sweep(dtable):
    for n in (3, 4):
        for g in range(0, 3):
            if 2 * g - 2 + n <= 0:
                continue
            for lam in partition_class(degree_rn(g, n), n):
                full = lam + (0,) * (n - len(lam))
                assert tau(g, full, dtable) == oracle.virasoro_tau(g, full)


def test_tau_mu_sum_dominance():
    # every Kostka column entry used by the formula dominates its index
    for lam in partition_class(6, 4):
        for mu in map(shape_of_beads, kostka_column(lam, 4)):
            assert dominates(mu, lam)


def _paper_sums(g, n, dtable, mus):
    """{mu: sum_r 12^r sum_nu D_{r,n}(nu) Q_{nu,mu}} with Q the gated
    determinant: the paper's expression, sharing no code with the chains."""
    top = min(g, r_max(n))
    dtable.ensure_upto(top, n)
    out = {}
    for mu in mus:
        total = Rat(0)
        for r in range(top + 1):
            for nu, dv in dtable.get(r, n).items():
                total += 12 ** r * dv * q_coeff(nu, mu, n)
        out[mu] = total
    return out


def _tau_from_sums(g, lam, n, sums):
    col = {shape_of_beads(b): k for b, k in kostka_column(lam, n).items()}
    total = sum(sums[mu] * k * gnum_cells(mu) for mu, k in col.items())
    return total / (dden(lam) * 24 ** g)


def _w_gn_from_sums(g, n, sums):
    coeffs = {}
    for mu, total in sums.items():
        gam = Rat(1)
        for i, m_i in enumerate(mu + (0,) * (n - len(mu)), start=1):
            gam *= gamma_half_ratio(5 - 2 * i, m_i)
        if total:
            coeffs[mu] = gam * total / 12 ** g
    return coeffs


def test_chains_equal_the_paper_formula(dtable):
    # tau and w_gn run ribbon chains; the paper writes the same sums with
    # the gated Q determinants
    cases = [(n, g) for n in (3, 4) for g in range(4)] + [(5, g) for g in range(3)]
    for n, g in cases:
        if 2 * g - 2 + n <= 0:
            continue
        sums = _paper_sums(g, n, dtable, partition_class(degree_rn(g, n), n))
        for lam in partition_class(degree_rn(g, n), n):
            full = lam + (0,) * (n - len(lam))
            assert tau(g, full, dtable) == _tau_from_sums(g, lam, n, sums), (g, full)
        assert w_gn(g, n, dtable).coeffs == _w_gn_from_sums(g, n, sums), (g, n)
    for g, lam in ((2, (2, 2, 2, 1, 1, 1)), (3, (2, 2, 2, 2, 2, 2))):
        sums = _paper_sums(g, 6, dtable, map(shape_of_beads, kostka_column(lam, 6)))
        assert tau(g, lam, dtable) == _tau_from_sums(g, lam, 6, sums), (g, lam)


def test_extreme_indices_follow_the_string_equation(dtable):
    # <tau_0^(n-1) tau_(3g-3+n)>_g = <tau_(3g-2)>_g = 1/(24^g g!): one shape
    # runs the whole chain down to the tables
    for n in (3, 4, 5):
        for g in (20, 30, 40):
            d = (degree_rn(g, n),) + (0,) * (n - 1)
            assert tau(g, d, dtable) == Rat(1, 24 ** g * math.factorial(g)), (g, n)


def test_clear_caches_empties_every_formula_memo(dtable):
    # the formula path keeps nothing between calls: after one call of each
    # kind neither module holds a module-level container, and the only
    # memo left, the partition classes, empties with its cache_clear
    tau(3, (3, 2, 2, 2, 2), dtable)
    a_gn(2, 5, ELEMENTARY, dtable)
    w_gn(2, 4, dtable)
    a_gn(1, 4, MONOMIAL, dtable).change_basis(ELEMENTARY).change_basis(SCHUR)
    found = {
        "%s.%s" % (mod.__name__.rsplit(".", 1)[1], name)
        for mod in (hop, sympoly)
        for name, value in vars(mod).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }
    assert found == set()
    assert partition_class.cache_info().currsize
    partition_class.cache_clear()
    assert partition_class.cache_info().currsize == 0


def test_tau_sweep_retains_no_memory():
    # a sweep over a box of indices keeps no more than one index needs;
    # the bead views of the table blocks are warmed first (they are the
    # table's, bounded by it)
    table = DTable.load(BENCH_TABLE)
    box = {3: 5, 4: 4, 5: 3}
    indices = [
        (g, lam + (0,) * (n - len(lam)))
        for n, g_max in box.items()
        for g in range(g_max + 1)
        for lam in partition_class(degree_rn(g, n), n)
    ]
    tracemalloc.start()
    try:
        for n, g_max in box.items():
            tau(g_max, (degree_rn(g_max, n),) + (0,) * (n - 1), table)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for g, d in indices:
            tau(g, d, table)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(indices) == 212
    assert held < 64 * 1024, held


# -- generating polynomials ----------------------------------------------


def test_a_gn_examples(dtable):
    assert a_gn(0, 5, ELEMENTARY, dtable).terms == {(1, 1): 1}
    assert a_gn(1, 4, ELEMENTARY, dtable) == closed_a1n(4)
    assert a_gn(1, 3, MONOMIAL, dtable).terms[(1, 1, 1)] == Rat(1, 12)
    with pytest.raises(ValueError):
        a_gn(0, 2, MONOMIAL, dtable)


def test_a_gn_monomial_coefficients_are_intersection_numbers(dtable):
    for g, n in ((2, 3), (1, 4), (2, 4)):
        poly = a_gn(g, n, MONOMIAL, dtable)
        for lam, c in poly.terms.items():
            assert c == oracle.virasoro_tau(g, lam + (0,) * (n - len(lam)))


def test_a_gn_and_w_gn_equal_the_recursion_class_by_class():
    # the index range of the benchmark's queries, on its table: every
    # coefficient of each class against the recursion, and the correlator
    # read back into intersection numbers
    table = DTable.load(BENCH_TABLE)
    for n in range(3, 7):
        for g in range(5):
            if 2 * g - 2 + n <= 0:
                continue
            poly = a_gn(g, n, MONOMIAL, table)
            assert poly == oracle.a_gn_oracle(g, n), (g, n)
            assert w_gn(g, n, table).intersection_numbers() == poly.terms, (g, n)


def test_string_equation(dtable):
    for n in (2, 3, 4):
        for g in range(0, 3):
            if 2 * g - 2 + n <= 0:
                continue
            e1 = SymPoly(n, ELEMENTARY, {(1,): 1})
            big = a_gn(g, n + 1, MONOMIAL, dtable)
            small = a_gn(g, n, MONOMIAL, dtable)
            # u_{n+1} = 0 keeps the monomials with at most n parts
            at_zero = SymPoly(n, MONOMIAL, {k: v for k, v in big.terms.items() if len(k) <= n})
            assert at_zero == mul(e1, small)


def test_elo_vanishing_and_n_independence(dtable):
    # expansion A_{g,n} = sum C_g(nu) e_nu e_1^(d-|nu|) has l(nu) <= g and
    # coefficients independent of n where the index fits
    coeffs = {}
    for n in (3, 4, 5):
        for g in range(0, 3):
            if 2 * g - 2 + n <= 0:
                continue
            poly = a_gn(g, n, ELEMENTARY, dtable)
            for lam, c in poly.terms.items():
                nu = tuple(x for x in lam if x >= 2)
                assert len(nu) <= g, (g, n, lam)
                if nu and nu[0] <= n - 1 and sum(nu) <= degree_rn(g, n - 1):
                    key = (g, nu)
                    if key in coeffs:
                        assert coeffs[key] == c, key
                    coeffs[key] = c


def test_zagier_series_cross_check(dtable):
    ref = oracle.series_reference("A3", 4)
    for g in range(0, 5):
        assert a_gn(g, 3, MONOMIAL, dtable) == ref[g]
    ref2 = oracle.series_reference("A2", 4)
    for g in range(1, 5):
        assert a_gn(g, 2, MONOMIAL, dtable) == ref2[g]


# -- correlators -----------------------------------------------------------


def test_w03_normalization(dtable):
    w = w_gn(0, 3, dtable)
    assert w.coeffs == {(): 1}
    # overall form: -dx1 dx2 dx3 / (16 (x1 x2 x3)^(3/2)); the packaged
    # coefficient of s_empty(1/x) is (-1)^n / 2^(n+1) = -1/16 times 1
    assert w.intersection_numbers() == {(): 1}


def test_w_gn_round_trip(dtable):
    for g, n in ((1, 3), (2, 3), (0, 4), (1, 4), (0, 5), (1, 5)):
        w = w_gn(g, n, dtable)
        assert all(sum(mu) == degree_rn(g, n) for mu in w.coeffs)
        rec = w.intersection_numbers()
        for lam in partition_class(degree_rn(g, n), n):
            want = tau(g, lam + (0,) * (n - len(lam)), dtable)
            assert rec.get(lam, Rat(0)) == want, (g, n, lam)


def test_w_gn_validation(dtable):
    with pytest.raises(ValueError):
        w_gn(0, 2, dtable)


def test_wn_det_equivalence(dtable):
    assert wn_det_truncated(3, 0, dtable)[0] == w_gn(0, 3, dtable)
    for g, w in wn_det_truncated(3, 2, dtable).items():
        assert w == w_gn(g, 3, dtable)
    for g, w in wn_det_truncated(4, 1, dtable).items():
        assert w == w_gn(g, 4, dtable)


def test_correlator_text():
    c = Correlator(1, 3, {(2, 1): Rat(5, 3), (1, 1, 1): Rat(-1, 2)})
    assert c.text().splitlines() == ["W g=1 n=3", "2,1 5/3", "1,1,1 -1/2"]
