"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every check is bit-exact rational equality; there are no numeric
tolerances anywhere.  The long n=6 table build runs once and is shared
through the session-scoped fixture.  Criterion 5's n=5 leg carries the
``extended`` marker (deselected by default; run with ``pytest -m extended``).
"""

import io
import math

import pytest

from brute import h_raw, inverse_kostka_row, trace_shift_invariance, wn_det_truncated
from golden_tables import TABLE_COUNTS, TABLE_E6, TABLE_ELEMENTARY, TABLE_SCHUR
from wkintersect import cli, oracle
from wkintersect.rational import Rat
from wkintersect.hop import HContext
from wkintersect.intersect import q_coeff, tau, a_gn, w_gn
from wkintersect.partitions import (
    enumerate_partitions,
    parse_partition,
    partition_class,
)
from wkintersect.pengine import degree_rn, direct_p, r_max
from wkintersect.sympoly import (
    ELEMENTARY,
    MONOMIAL,
    SCHUR,
    SymPoly,
    kostka_column,
    shape_of_beads,
)

import random


def as_terms(golden):
    return {k: Rat(v) for k, v in golden.items()}


@pytest.fixture(scope="session")
def cli_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("wk-cache")


def run_cli(args, cache_dir):
    out = io.StringIO()
    code = cli.main(["--cache-dir", str(cache_dir)] + args, out=out)
    return code, out.getvalue()


def test_criterion_1_schur_table(dtable):
    """Golden Schur-basis components for n = 3, 4, 5, all r."""
    for n in (3, 4, 5):
        dtable.ensure_upto(r_max(n), n)
        for r in range(r_max(n) + 1):
            assert dtable.get(r, n) == as_terms(TABLE_SCHUR[(r, n)]), (r, n)
    assert dtable.get(1, 5)[(1, 1, 1, 1, 1)] == Rat(17, 10)
    print("ACCEPTANCE 1: PASS - Schur components match the golden table for n=3,4,5")


def test_criterion_2_elementary_tables(dtable, cli_cache):
    """Golden elementary-basis components for n = 3..5 and the full n = 6
    family through the command-line surface."""
    for n in (3, 4, 5):
        dtable.ensure_upto(r_max(n), n)
        for r in range(r_max(n) + 1):
            got = dtable.p_rn(r, n).change_basis(ELEMENTARY).terms
            assert got == as_terms(TABLE_ELEMENTARY[(r, n)]), (r, n)

    # build the n=6 cache once, then read every component back via the CLI
    code, _ = run_cli(["dtable", "-n", "6"], cli_cache)
    assert code == 0
    for r in range(r_max(6) + 1):
        code, out = run_cli(
            ["pn", "-n", "6", "-r", str(r), "--basis", "elementary"], cli_cache
        )
        assert code == 0
        got = {}
        for line in out.splitlines():
            head, val = line.split()
            got[parse_partition(head[2:-1])] = Rat(val)
        assert got == as_terms(TABLE_E6[r]), ("n=6", r)
    # share the blocks with the session table for later criteria
    from wkintersect.pengine import DTable

    cached = DTable.load(str(cli_cache / "dtable.txt"))
    for (r, n), block in cached.blocks.items():
        if not dtable.has(r, n):
            dtable.put(r, n, block)
    assert dtable.get(10, 6)[(7, 6, 6, 5, 5, 4)] == Rat(1, 2419200)
    print("ACCEPTANCE 2: PASS - elementary components match for n=3,4,5 and n=6 (r<=10)")


def test_criterion_3_support_counts(dtable, cli_cache):
    """Appearing-vs-allowed counts across all 24 golden rows."""
    for n in (3, 4, 5, 6):
        rows = cli.elo_rows(n, r_max(n), dtable)
        for r, appearing, allowed in rows:
            assert (appearing, allowed) == TABLE_COUNTS[(n, r)], (n, r)
    assert TABLE_COUNTS[(6, 6)] == (27, 64)
    print("ACCEPTANCE 3: PASS - all 24 support-count rows match")


def test_criterion_4_oracle_equivalence(dtable):
    """Closed formula equals the recursion on every admissible index with
    3 <= n <= 5, g <= 4 and n = 6, g <= 3.  Exact equality."""
    checked = 0
    for n, gtop in ((3, 4), (4, 4), (5, 4), (6, 3)):
        dtable.ensure_upto(min(gtop, r_max(n)), n)
        for g in range(0, gtop + 1):
            if 2 * g - 2 + n <= 0:
                continue
            for lam in partition_class(degree_rn(g, n), n):
                full = lam + (0,) * (n - len(lam))
                assert tau(g, full, dtable) == oracle.virasoro_tau(g, full), (g, full)
                checked += 1
    print(
        "ACCEPTANCE 4: PASS - formula == oracle on %d admissible indices" % checked
    )


def test_criterion_5_route_equivalence(dtable):
    """Determinantal route equals the bootstrap sum at n = 3, 4 (exact)."""
    for n in (3, 4):
        dtable.ensure_upto(r_max(n), n)
        total = SymPoly.zero(n, SCHUR)
        for r in range(r_max(n) + 1):
            total = total + dtable.p_rn(r, n)
        assert direct_p(n) == total, n
    print("ACCEPTANCE 5: PASS - direct determinantal route == bootstrap at n=3,4")


@pytest.mark.extended
def test_criterion_5_route_equivalence_extended(dtable):
    n = 5
    dtable.ensure_upto(r_max(n), n)
    total = SymPoly.zero(n, SCHUR)
    for r in range(r_max(n) + 1):
        total = total + dtable.p_rn(r, n)
    assert direct_p(5) == total
    print("ACCEPTANCE 5x: PASS - direct determinantal route == bootstrap at n=5")


def test_criterion_6_one_point_series():
    """<tau_{3g-2}>_g = 1 / (24^g g!) for g <= 10, via the recursion and via
    the independent one-point series expansion."""
    ref = oracle.series_reference("A1", 10)
    for g in range(1, 11):
        want = Rat(1, 24 ** g * math.factorial(g))
        assert oracle.virasoro_tau(g, (3 * g - 2,)) == want, g
        assert ref[g].terms == {(3 * g - 2,): want}, g
    print("ACCEPTANCE 6: PASS - one-point values match 1/(24^g g!) for g<=10")


def test_criterion_7_property_suite(dtable):
    """The exhaustive exact property checks at their stated bounds."""
    # K * K^{-1} = Id on every weight class with weight <= 12, n <= 6
    for n in range(1, 7):
        for d in range(0, 13):
            cls = partition_class(d, n)
            cols = [
                (lamp, {shape_of_beads(b): k for b, k in kostka_column(lamp, n).items()})
                for lamp in cls
            ]
            for lam in cls:
                row = inverse_kostka_row(lam, n)
                for lamp, col in cols:
                    acc = sum(s * col.get(mu, 0) for mu, s in row.items())
                    assert acc == (1 if lam == lamp else 0), (n, d, lam, lamp)

    # H^{-1} o H = identity up to degree 9
    rng = random.Random(101)
    for n in (3, 4):
        h = HContext(n)
        terms = {}
        for d in range(0, 10):
            for lam in enumerate_partitions(d, n):
                if rng.random() < 0.5:
                    terms[lam] = Rat(rng.randint(-9, 9))
        f = SymPoly(n, MONOMIAL, terms)
        assert h.apply_inverse(h.apply(f)) == f, n

    # hook formula for k <= 6
    from wkintersect.rational import double_factorial_odd_int

    for k in range(1, 7):
        n = max(k, 3)
        h = HContext(n)
        for ell in range(0, 4):
            lam = (k,) + (1,) * ell
            img = h.apply(SymPoly.basis_element(ELEMENTARY, lam, n)).change_basis(ELEMENTARY)
            want = Rat((-1) ** k * 3 ** (k - 1), double_factorial_odd_int(2 * k - 5))
            assert img.terms == {lam: want}, (k, ell)

    # differential realization agrees with the matrix route (n <= 4, deg <= 6)
    for n in (2, 3, 4):
        h = HContext(n)
        terms = {}
        for d in range(0, 7):
            for lam in enumerate_partitions(d, n):
                terms[lam] = Rat(rng.randint(-5, 5))
        f = SymPoly(n, MONOMIAL, terms)
        assert h_raw(f) == h.apply(f), n

    # gated determinant equals the inner product <p3^k s_nu, s_mu> / k!
    for n in (3, 4):
        p3 = SymPoly(n, MONOMIAL, {(3,): 1})
        for dmu in range(0, 13):
            for k in range(0, dmu // 3 + 1):
                dnu = dmu - 3 * k
                for nu in partition_class(dnu, n):
                    poly = SymPoly.basis_element(SCHUR, nu, n).change_basis(MONOMIAL)
                    for _ in range(k):
                        poly = poly * p3
                    schur = poly.change_basis(SCHUR)
                    for mu in partition_class(dmu, n):
                        want = schur.terms.get(mu, Rat(0)) / math.factorial(k)
                        assert q_coeff(nu, mu, n) == want, (nu, mu, k)

    # string equation on generating polynomials, g <= 3, n <= 5
    for n in (2, 3, 4):
        e1 = SymPoly.basis_element(ELEMENTARY, (1,), n).change_basis(MONOMIAL)
        for g in range(0, 4):
            if 2 * g - 2 + n <= 0:
                continue
            big = a_gn(g, n + 1, MONOMIAL, dtable)
            small = a_gn(g, n, MONOMIAL, dtable)
            assert big.specialize_last_to_zero() == (e1 * small).change_basis(MONOMIAL), (g, n)

    # elementary-basis length bound l(nu) <= g on all computed polynomials
    for n in (3, 4, 5):
        for g in range(0, 4):
            if 2 * g - 2 + n <= 0:
                continue
            poly = a_gn(g, n, ELEMENTARY, dtable)
            for lam in poly.terms:
                assert sum(1 for x in lam if x >= 2) <= g, (g, n, lam)

    # remainder structure: P_{r,n} - e1 P_{r,n-1} is divisible by e_n, n <= 5
    for n in (4, 5):
        dtable.ensure_upto(r_max(n), n)
        dtable.ensure_upto(r_max(n - 1), n - 1)
        for r in range(r_max(n - 1) + 1):
            big = dtable.p_rn(r, n).change_basis(ELEMENTARY)
            small = dtable.p_rn(r, n - 1).change_basis(ELEMENTARY)
            promoted = {tuple(sorted(lam + (1,), reverse=True)): c for lam, c in small.terms.items()}
            diff = big - SymPoly(n, ELEMENTARY, promoted)
            assert all(lam and lam[0] == n for lam in diff.terms), (r, n)

    # cyclic trace sum invariance on 100 random instances, n in {3, 4, 5}
    rng2 = random.Random(2024)
    for trial in range(100):
        n = 3 + trial % 3
        mats = [
            tuple(tuple(Rat(rng2.randint(-6, 6)) for _ in range(2)) for _ in range(2))
            for _ in range(n)
        ]
        xs = rng2.sample(range(1, 50), n)
        shifts = [Rat(rng2.randint(-5, 5), rng2.randint(1, 4)) for _ in range(n)]
        assert trace_shift_invariance(mats, xs, shifts)

    # determinant form of the correlators equals the direct coefficients
    for n, gtop in ((3, 2), (4, 2)):
        ws = wn_det_truncated(n, gtop, dtable)
        for g in range(gtop + 1):
            assert ws[g] == w_gn(g, n, dtable), (n, g)

    print("ACCEPTANCE 7: PASS - exhaustive property suite at stated bounds")


def test_criterion_8_benchmark(cli_cache):
    """Scaling table for the closed formula vs the recursion; reported, not
    asserted (the stated complexity bound is an upper bound only)."""
    code, out = run_cli(["bench", "-n", "3", "--g-max", "8"], cli_cache)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "g\tt_formula\tt_oracle"
    rows = lines[2:]
    assert len(rows) == 8
    print("ACCEPTANCE 8: PASS - benchmark table produced (n=3, g<=8):")
    print(out)
