import os
import random

import pytest

from brute import (
    alternant_coefficient,
    bialternant_schur,
    contingency_kostka,
    dominates,
    evaluate,
    inverse_kostka_row,
    jacobi_trudi_schur,
    scale,
    signed_det_inverse_kostka,
    ssyt_count,
)
from wkintersect.rational import Rat
from wkintersect import sympoly
from wkintersect.pengine import DTable, r_max
from wkintersect.partitions import (
    enumerate_partitions,
    hook_numbers,
    parse_partition,
    partition_class,
    ptrim,
    transpose,
)
from wkintersect.sympoly import (
    BASES,
    ELEMENTARY,
    MONOMIAL,
    SCHUR,
    SymPoly,
    dual_kostka_column,
    kostka_column,
    _integer_terms,
    _multiset_code,
    monomial_integers,
    power_sum_times_schur,
    schur_integers,
    shape_of_beads,
)
from wkintersect.laurent import LaurentPoly


def random_sympoly(n, max_degree, rng, basis=MONOMIAL):
    terms = {}
    for d in range(max_degree + 1):
        for lam in enumerate_partitions(d, n):
            if rng.random() < 0.4:
                terms[lam] = Rat(rng.randint(-6, 6))
    return SymPoly(n, basis, terms)


# -- Kostka numbers ----------------------------------------------------


def kostka(mu, lam, n):
    """K_{mu,lam} in n rows, read off the strip-grown column of lam."""
    return kostka_column(lam, n).get(hook_numbers(mu, n), 0)


def inverse_kostka(lam, mu, n):
    """S_{lam,mu}, the s_mu coefficient of m_lam in n variables: the
    alternant read on a single monomial."""
    return schur_integers({lam + (0,) * (n - len(lam)): 1}, n).get(mu, 0)


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1), 3) == 2
    assert kostka((3, 1), (3, 1), 2) == 1
    assert kostka((1, 1, 1), (2, 1), 3) == 0


def test_kostka_against_tableau_enumeration():
    for d in range(1, 7):
        for lam in partition_class(d, d):
            for mu in partition_class(d, d):
                assert kostka(mu, lam, d) == ssyt_count(mu, lam)


def test_kostka_against_contingency_formula():
    n = 4
    for d in range(1, 7):
        for lam in partition_class(d, n):
            for mu in partition_class(d, n):
                assert kostka(mu, lam, n) == contingency_kostka(mu, lam, n)


def test_kostka_triangularity():
    for d in range(1, 9):
        for lam in partition_class(d, d):
            col = {shape_of_beads(b): k for b, k in kostka_column(lam, max(d, 1)).items()}
            for mu, k in col.items():
                assert k > 0
                assert dominates(mu, lam)
            assert col[lam] == 1


def test_kostka_column_skips_zero_parts():
    assert kostka_column((3, 1, 0, 0), 4) == kostka_column((3, 1), 4)
    assert kostka_column((0,), 3) == {(2, 1, 0): 1}


def test_dual_column_is_transposed_kostka():
    for n in range(1, 7):
        for d in range(1, 8):
            for lam in enumerate_partitions(d, d, max_part=n):
                dcol = {shape_of_beads(b): k for b, k in dual_kostka_column(lam, n).items()}
                for mu in partition_class(d, n):
                    assert dcol.get(mu, 0) == ssyt_count(transpose(mu), lam), (n, lam, mu)
    # a zero part adds nothing, a part equal to n fills every row, and a
    # part above n leaves no shape
    assert dual_kostka_column((2, 0, 1), 3) == dual_kostka_column((2, 1), 3)
    assert dual_kostka_column((3, 1), 3) == {(4, 2, 1): 1}  # s_{2,1,1}
    assert dual_kostka_column((2, 1), 1) == {}
    assert dual_kostka_column((5,), 4) == {}


def test_inverse_kostka_examples():
    assert inverse_kostka((2, 1), (2, 1), 2) == 1
    assert inverse_kostka((3,), (2, 1), 2) == -1
    assert inverse_kostka((2, 1), (1, 1, 1), 3) == -2
    assert inverse_kostka((2, 1), (3,), 2) == 0  # triangularity


def test_inverse_kostka_signed_determinant():
    for n, d_max in ((3, 8), (4, 8), (5, 8), (6, 6)):
        for d in range(1, d_max + 1):
            for lam in partition_class(d, n):
                row = inverse_kostka_row(lam, n)
                for mu in partition_class(d, n):
                    assert row.get(mu, 0) == signed_det_inverse_kostka(lam, mu, n)


def test_column_read_equals_inverse_kostka_rows():
    # m -> s reads one alternant coefficient per shape and s -> m eliminates
    # with the same read; rows of K^{-1} walk the rearrangements of one
    # partition.  Each basis element, then a combination of mixed degree
    # with rational coefficients in both directions, and a read restricted
    # to a width.
    rng = random.Random(31)
    for n in range(1, 8):
        terms = {}
        want = {}
        for d in range(0, 13):
            for lam in partition_class(d, n):
                row = inverse_kostka_row(lam, n)
                assert SymPoly.basis_element(MONOMIAL, lam, n).change_basis(SCHUR).terms == row, (n, lam)
                c = Rat(rng.randint(-9, 9), rng.randint(1, 4))
                terms[lam] = c
                for mu, s in row.items():
                    want[mu] = want.get(mu, 0) + c * s
        f = SymPoly(n, MONOMIAL, terms)
        assert f.change_basis(SCHUR) == SymPoly(n, SCHUR, want), n
        assert SymPoly(n, SCHUR, want).change_basis(MONOMIAL) == f, n
        den, items = _integer_terms(f.terms)
        padded = {lam + (0,) * (n - len(lam)): c for lam, c in items}
        for width in (1, 2, 5):
            cut = {mu: v for mu, v in want.items() if v and (not mu or mu[0] <= width)}
            read = {mu: Rat(c, den) for mu, c in schur_integers(padded, n, width).items()}
            assert SymPoly(n, SCHUR, read) == SymPoly(n, SCHUR, cut), (n, width)


def _fields(code, bits):
    """{value: multiplicity} read back off a multiset code."""
    out = {}
    a = 0
    while code:
        m = code & ((1 << bits) - 1)
        if m:
            out[a] = m
        code >>= bits
        a += 1
    return out


def test_multiset_code_fields_hold_a_multiplicity_of_n():
    # the alternant kernel keys coefficients by sum_a 1 << (bits * a) with
    # bits = n.bit_length(); the field of a value must hold every
    # multiplicity up to n, which all parts equal reaches (at n = 8 a
    # 3-bit field would overflow into the next value's)
    for n in (7, 8):
        bits = n.bit_length()
        for a in range(5):
            assert _fields(_multiset_code((a,) * n, n), bits) == {a: n}
        codes = {}
        for d in range(13):
            for lam in partition_class(d, n):
                padded = lam + (0,) * (n - len(lam))
                code = _multiset_code(padded, n)
                assert code == _multiset_code(padded[::-1], n)
                want = {}
                for x in padded:
                    want[x] = want.get(x, 0) + 1
                assert _fields(code, bits) == want
                assert codes.setdefault(code, padded) == padded
        # the kernel on one all-equal monomial: S_{lam,lam} = 1
        lam = (3,) * n
        assert schur_integers({lam: 1}, n) == {lam: 1}


def random_monomial_integers(n, max_degree, rng):
    """{partition padded to n parts: c} with about half the partitions of
    each degree up to max_degree given a non-zero integer c."""
    out = {}
    for d in range(max_degree + 1):
        for lam in partition_class(d, n):
            if rng.random() < 0.5:
                out[lam + (0,) * (n - len(lam))] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return out


def test_alternant_kernel_against_the_permutation_sum():
    # every shape of degree <= 10, read or cut by dominance, and up to 13
    # for n = 4..6, where entry n - 1 of delta reaches the bottom walk
    # (beta_3 >= n - 1 needs mu_4 >= 3); n = 3 has an empty bottom walk,
    # n = 1, 2 no top three
    rng = random.Random(29)
    for n in range(1, 8):
        top = 13 if 4 <= n <= 6 else 10
        padded = random_monomial_integers(n, top, rng)
        read = schur_integers(padded, n)
        for d in range(top + 1):
            for mu in partition_class(d, n):
                assert read.get(mu, 0) == alternant_coefficient(padded, mu, n), (n, mu)


def test_alternant_reads_do_not_depend_on_their_order(monkeypatch):
    rng = random.Random(30)
    cases = [(n, random_monomial_integers(n, 13, rng)) for n in range(1, 8)]
    want = [schur_integers(padded, n) for n, padded in cases]
    shapes_to_read = sympoly._shapes_to_read

    def shuffled(*args):
        shapes = list(shapes_to_read(*args))
        rng.shuffle(shapes)
        return shapes

    monkeypatch.setattr(sympoly, "_shapes_to_read", shuffled)
    assert [schur_integers(padded, n) for n, padded in cases] == want


def test_monomial_integers_inverts_schur_integers():
    rng = random.Random(31)
    for n in range(1, 8):
        padded = random_monomial_integers(n, 13, rng)
        trimmed = {ptrim(lam): c for lam, c in padded.items()}
        assert monomial_integers(schur_integers(padded, n), n) == trimmed, n


def test_kostka_times_inverse_is_identity_small():
    for n in range(1, 5):
        for d in range(0, 9):
            cls = partition_class(d, n)
            for lam in cls:
                row = inverse_kostka_row(lam, n)
                for lamp in cls:
                    col = {shape_of_beads(b): k for b, k in kostka_column(lamp, n).items()}
                    acc = sum(s * col.get(mu, 0) for mu, s in row.items())
                    assert acc == (1 if lam == lamp else 0)


# -- SymPoly mechanics ---------------------------------------------------


def test_basis_validation():
    with pytest.raises(ValueError):
        SymPoly(2, MONOMIAL, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        SymPoly(2, ELEMENTARY, {(3,): 1})
    with pytest.raises(ValueError):
        SymPoly(2, "x", {})
    # elementary indices may be longer than n
    SymPoly(2, ELEMENTARY, {(2, 2, 2, 1, 1): 1})


def test_public_constructor_validates_internal_results_do_not_need_to():
    # the trusted constructor behind +, - and the base changes skips
    # validation; the public one still trims, merges and rejects
    with pytest.raises(ValueError):
        SymPoly(3, MONOMIAL, {(1, 1, 1, 1): 1})
    with pytest.raises(ValueError):
        SymPoly(3, SCHUR, {(2, 1, 1, 1): Rat(1, 2)})
    p = SymPoly(3, MONOMIAL, {(2, 1, 0): 1, (2, 1): Rat(1, 2), (1,): 0})
    assert p.terms == {(2, 1): Rat(3, 2)}
    q = scale(scale(p, 2) + (-p), Rat(2, 3))
    assert q == scale(p, Rat(2, 3)) and q.terms == {(2, 1): 1}
    assert (p + (-p)).terms == {}


def test_change_basis_examples():
    s21 = SymPoly.basis_element(SCHUR, (2, 1), 3)
    assert s21.change_basis(MONOMIAL).terms == {(2, 1): 1, (1, 1, 1): 2}

    e1 = SymPoly.basis_element(ELEMENTARY, (1,), 3)
    assert e1.change_basis(SCHUR).terms == {(1,): 1}

    p3 = SymPoly(3, MONOMIAL, {(3,): 1})
    assert p3.change_basis(SCHUR).terms == {(3,): 1, (2, 1): -1, (1, 1, 1): 1}


def test_round_trips_random():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for basis in BASES:
            for _ in range(3):
                if basis == ELEMENTARY:
                    terms = {}
                    for d in range(7):
                        for lam in enumerate_partitions(d, d, max_part=n):
                            if rng.random() < 0.3:
                                terms[lam] = Rat(rng.randint(-5, 5))
                    p = SymPoly(n, basis, terms)
                else:
                    p = random_sympoly(n, 6, rng, basis)
                for target in BASES:
                    assert p.change_basis(target).change_basis(basis) == p


def test_elementary_round_trip_on_the_n7_table():
    # s -> e -> s on every block of the committed n = 7 table: the dual
    # columns and their elimination at the largest n the tests hold
    table = DTable.load(os.path.join(os.path.dirname(__file__), "dtable_n7.txt"))
    for r in range(r_max(7) + 1):
        p = table.p_rn(r, 7)
        assert p.change_basis(ELEMENTARY).change_basis(SCHUR) == p, r


def test_monomial_elementary_composition_agrees_with_expansion():
    rng = random.Random(4)
    for n in (2, 3):
        p = random_sympoly(n, 5, rng)
        via_schur = p.change_basis(ELEMENTARY)
        # independent check: expand both and compare exponent polynomials
        assert not (via_schur.to_exponent_poly() - p.to_exponent_poly()).terms


def test_multiply_examples():
    m1 = SymPoly.basis_element(MONOMIAL, (1,), 2)
    assert (m1 * m1).terms == {(2,): 1, (1, 1): 2}

    n = 3
    e1 = SymPoly.basis_element(ELEMENTARY, (1,), n)
    e1cubed = e1 * e1 * e1
    p3 = SymPoly(n, MONOMIAL, {(3,): 1})
    e2 = SymPoly.basis_element(ELEMENTARY, (2,), n)
    e3 = SymPoly.basis_element(ELEMENTARY, (3,), n)
    rhs = p3 + scale(e1 * e2, 3) + scale(e3.change_basis(MONOMIAL), -3)
    assert e1cubed == rhs

    one = SymPoly.one(n)
    q = random_sympoly(n, 4, random.Random(0))
    assert q * one == q


def test_multiply_rejects_mixed_widths():
    with pytest.raises(ValueError):
        SymPoly.one(2) * SymPoly.one(3)


def test_specialize_last_to_zero():
    e3 = SymPoly.basis_element(ELEMENTARY, (3,), 3)
    assert e3.specialize_last_to_zero().terms == {}
    e1 = SymPoly.basis_element(ELEMENTARY, (1,), 3)
    assert e1.specialize_last_to_zero().terms == {(1,): 1}
    m21 = SymPoly.basis_element(MONOMIAL, (2, 1), 2)
    assert m21.specialize_last_to_zero().terms == {}
    m2 = SymPoly.basis_element(MONOMIAL, (2,), 2)
    assert m2.specialize_last_to_zero().terms == {(2,): 1}


def test_evaluate_examples():
    e2 = SymPoly.basis_element(ELEMENTARY, (2,), 3)
    assert evaluate(e2, (1, 1, 1)) == 3
    s11 = SymPoly.basis_element(SCHUR, (1, 1), 2)
    assert evaluate(s11, (2, 3)) == 6
    m2 = SymPoly.basis_element(MONOMIAL, (2,), 2)
    assert evaluate(m2, (1, 2)) == 5
    with pytest.raises(ValueError):
        evaluate(m2, (1, 2, 3))


def test_evaluate_commutes_with_basis_change_and_multiply():
    rng = random.Random(77)
    for n in (2, 3):
        p = random_sympoly(n, 5, rng)
        q = random_sympoly(n, 4, rng)
        point = tuple(Rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        vals = [evaluate(p.change_basis(b), point) for b in BASES]
        assert len(set(map(str, vals))) == 1
        assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)


def test_schur_determinant_identities():
    for n in (2, 3, 4):
        for d in range(0, 9):
            for lam in partition_class(d, n):
                viak = SymPoly.basis_element(SCHUR, lam, n).change_basis(MONOMIAL)
                assert viak == jacobi_trudi_schur(lam, n)
                assert viak == bialternant_schur(lam, n)


def test_exponent_poly_division():
    n = 3
    e1 = SymPoly.basis_element(ELEMENTARY, (1,), n).to_exponent_poly()
    p = random_sympoly(n, 4, random.Random(9)).to_exponent_poly()
    prod = p * e1
    assert not (prod.divide_exact(e1) - p).terms
    bad = LaurentPoly(n, {(2, 0, 0): 1})
    with pytest.raises(ValueError):
        bad.divide_exact(e1)
    # only a divisor with leading coefficient +-1 is accepted
    with pytest.raises(ValueError):
        prod.divide_exact(LaurentPoly(n, {(2, 0, 0): 2, (0, 2, 0): 2}))


def test_text_round_trip():
    rng = random.Random(31)
    p = random_sympoly(3, 5, rng, SCHUR)
    terms = {}
    for line in p.text().splitlines():
        head, val = line.split()
        terms[parse_partition(head[2:-1])] = Rat(val)
    assert SymPoly(3, SCHUR, terms) == p
    assert SymPoly.one(2).text() == "m[-] 1"
    # reverse-lex ordering of lines
    lines = p.text().splitlines()
    keys = [line.split(" ", 1)[0] for line in lines]
    assert keys == sorted(keys, key=lambda s: _key_of(s), reverse=True)


def _key_of(token):
    inner = token[2:-1]
    return tuple(int(x) for x in inner.split(",")) if inner != "-" else ()


def test_power_sum_ribbon_rule_against_generic_multiply():
    rng = random.Random(6)
    for n in (2, 3, 4):
        for d in (2, 3, 4, 5):
            p = random_sympoly(n, d, rng).change_basis(SCHUR)
            fast = power_sum_times_schur(p)
            slow = (SymPoly(n, MONOMIAL, {(3,): 1}) * p.change_basis(MONOMIAL)).change_basis(SCHUR)
            assert fast == slow


def test_symmetry_check_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymPoly.from_exponent_poly(LaurentPoly(2, {(2, 0): 1}))
    # an odd doubled exponent is a half-integer power of u
    with pytest.raises(ValueError):
        SymPoly.from_exponent_poly(LaurentPoly(2, {(1, 1): 1}))
