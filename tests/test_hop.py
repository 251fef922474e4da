import random

import pytest

from brute import apply_inverse_elementary, dominates, gnum_cells, h_raw, scale
from wkintersect.rational import Rat, dden, double_factorial_odd_int
from wkintersect.partitions import enumerate_partitions, hook_numbers, partition_class
from wkintersect.hop import HContext, barnes_constant, times_gnum
from wkintersect.sympoly import ELEMENTARY, MONOMIAL, SCHUR, SymPoly, kostka_column


def random_sympoly(n, degrees, rng):
    terms = {}
    for d in degrees:
        for lam in enumerate_partitions(d, n):
            if rng.random() < 0.5:
                terms[lam] = Rat(rng.randint(-5, 5))
    return SymPoly(n, MONOMIAL, terms)


def n_factor(mu, lam):
    """The weight N_{mu,lam} = gnum(mu) / dden(lam) that H and H^{-1} scale by."""
    return Rat(gnum_cells(mu), dden(lam))


def test_bead_gnum_matches_the_cell_product():
    # gnum(mu) = prod_i phi(beta_i) / phi(n-1-i) on the beads against the
    # product over the cells of mu, on every shape of weight <= 14, n <= 7
    count = 0
    for n in range(1, 8):
        shapes = [mu for d in range(15) for mu in partition_class(d, n)]
        got = times_gnum({hook_numbers(mu, n): 1 for mu in shapes}, n)
        for mu in shapes:
            assert got[hook_numbers(mu, n)] == gnum_cells(mu), (n, mu)
        count += len(shapes)
    assert count == 1612


def test_n_factor_examples():
    assert n_factor((), ()) == 1
    assert n_factor((1, 1, 1), (1, 1, 1)) == Rat(-1, 9)
    assert n_factor((1,), (1,)) == 1


def test_n_factor_never_vanishes():
    for d in range(0, 8):
        for mu in partition_class(d, d if d else 1):
            for lam in partition_class(d, d if d else 1):
                assert n_factor(mu, lam) != 0


def test_barnes_constant_values():
    assert barnes_constant(1) == 1
    assert barnes_constant(2) == Rat(-1, 2)
    assert barnes_constant(3) == Rat(1, 8)
    assert barnes_constant(4) == Rat(-3, 64)


def test_identity_and_single_box():
    for n in (1, 2, 3, 4):
        h = HContext(n)
        assert h.apply(SymPoly.one(n)).terms == {(): 1}
        assert h.apply_inverse(SymPoly.basis_element(SCHUR, (), n)).terms == {(): 1}
        if n >= 1:
            assert h.apply_inverse(SymPoly.basis_element(SCHUR, (1,), n)).terms == {(1,): 1}


def test_e3_eigenvalue():
    h = HContext(3)
    e3 = SymPoly.basis_element(ELEMENTARY, (3,), 3)
    assert h.apply(e3).change_basis(ELEMENTARY).terms == {(3,): -9}


def test_e1_commutation():
    rng = random.Random(42)
    for n in (2, 3):
        h = HContext(n)
        e1 = SymPoly.basis_element(ELEMENTARY, (1,), n)
        for k in (1, 2, 3):
            f = random_sympoly(n, range(0, 4), rng)
            lhs = f
            for _ in range(k):
                lhs = lhs * e1
            left = h.apply(lhs).change_basis(MONOMIAL)
            right = h.apply(f).change_basis(MONOMIAL)
            for _ in range(k):
                right = right * e1
            assert left == right.change_basis(MONOMIAL)


def test_inverse_round_trip():
    rng = random.Random(7)
    for n in (2, 3, 4):
        h = HContext(n)
        for _ in range(4):
            f = random_sympoly(n, range(0, 10), rng)
            assert h.apply_inverse(h.apply(f)) == f
            g = f.change_basis(SCHUR)
            assert h.apply(h.apply_inverse(g)).change_basis(SCHUR) == g


def test_hook_formula():
    # H(e_k e_1^l) = (-1)^k 3^(k-1) / (2k-5)!! * e_k e_1^l
    for k in range(1, 7):
        n = max(k, 3)
        h = HContext(n)
        for ell in range(0, 4):
            lam = (k,) + (1,) * ell
            ek = SymPoly.basis_element(ELEMENTARY, lam, n)
            got = h.apply(ek).change_basis(ELEMENTARY)
            c = Rat((-1) ** k * 3 ** (k - 1), double_factorial_odd_int(2 * k - 5))
            assert got.terms == {lam: c}, (k, ell, got.terms)


def test_elementary_triangularity_and_n_independence():
    targets = [(2,), (2, 1), (3,), (2, 2), (3, 1), (3, 2), (2, 2, 1)]
    coeffs_by_n = {}
    for extra in (0, 1, 2):
        for lam in targets:
            n = max(lam[0], len(lam), 3) + extra
            h = HContext(n)
            img = h.apply(SymPoly.basis_element(ELEMENTARY, lam, n)).change_basis(ELEMENTARY)
            for mu, c in img.terms.items():
                assert dominates(mu, lam), (lam, mu)
                key = (lam, mu)
                if key in coeffs_by_n:
                    assert coeffs_by_n[key] == c, key
                else:
                    coeffs_by_n[key] = c


def test_matrix_route_matches_differential_definition():
    rng = random.Random(3)
    for n in (2, 3, 4):
        h = HContext(n)
        for _ in range(2):
            f = random_sympoly(n, range(0, 7), rng)
            assert h_raw(f) == h.apply(f)


def test_inverse_elementary():
    assert apply_inverse_elementary(3, ()).terms == {(): 1}
    assert apply_inverse_elementary(3, (1,)).terms == {(1,): 1}
    # inverse of H(e_3) = -9 e_3
    e3 = SymPoly.basis_element(ELEMENTARY, (3,), 3).change_basis(MONOMIAL)
    assert apply_inverse_elementary(3, (3,)) == scale(e3, Rat(-1, 9))
    with pytest.raises(ValueError):
        apply_inverse_elementary(3, (4,))

    rng = random.Random(12)
    for n in (2, 3, 4):
        h = HContext(n)
        for d in range(0, 6):
            for lam in enumerate_partitions(d, d, max_part=n):
                via_formula = apply_inverse_elementary(n, lam)
                via_chain = h.apply_inverse(
                    SymPoly.basis_element(ELEMENTARY, lam, n).change_basis(SCHUR)
                )
                assert via_formula == via_chain, (n, lam)


def test_inverse_against_strip_grown_kostka():
    """H^{-1}(s_mu) = sum_lam N_{mu,lam} K_{mu,lam} m_lam, both sides from
    Kostka numbers grown by horizontal strips, not from rows of K^{-1}."""
    for n in range(1, 6):
        h = HContext(n)
        for d in range(0, 10):
            cls = partition_class(d, n)
            cols = {lam: kostka_column(lam, n) for lam in cls}
            for mu in cls:
                beta = hook_numbers(mu, n)
                want = SymPoly(
                    n, MONOMIAL, {lam: n_factor(mu, lam) * cols[lam].get(beta, 0) for lam in cls}
                )
                assert h.apply_inverse(SymPoly.basis_element(SCHUR, mu, n)) == want, (n, mu)


def test_degree_preservation():
    rng = random.Random(9)
    for n in (2, 3):
        h = HContext(n)
        for d in range(0, 7):
            f = random_sympoly(n, [d], rng)
            img = h.apply(f)
            assert all(sum(k) == d for k in img.terms)
