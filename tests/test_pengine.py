import math
import os
import random
import time

import pytest

from brute import bootstrap_unpruned, scale, trace_shift_invariance
from golden_tables import TABLE_E6, TABLE_SCHUR
from wkintersect.rational import Rat
from wkintersect import intersect, laurent, oracle, pengine
from wkintersect.hop import HContext
from wkintersect.partitions import partition_class
from wkintersect.pengine import (
    MAX_CLASS_SIZE,
    DTable,
    block_terms,
    bootstrap_all,
    box_width,
    degree_rn,
    direct_p,
    r_max,
)
from wkintersect.sympoly import (
    ELEMENTARY,
    MONOMIAL,
    SCHUR,
    SymPoly,
    power_sum_times_schur,
    runner_counts,
)


def as_terms(golden):
    return {k: Rat(v) for k, v in golden.items()}


def test_r_bounds():
    assert r_max(3) == 1 and r_max(4) == 3 and r_max(5) == 6 and r_max(6) == 10
    with pytest.raises(ValueError):
        bootstrap_all(2, 3)
    with pytest.raises(ValueError):
        bootstrap_all(-1, 4)


def test_bootstrap_matches_schur_table_n3_n4(dtable):
    for (r, n), golden in TABLE_SCHUR.items():
        if n > 4:
            continue
        dtable.ensure_upto(r, n)
        assert dtable.get(r, n) == as_terms(golden), (r, n)


def test_bootstrap_all_consistent():
    every = bootstrap_all(3, 4)
    for r in range(4):
        assert every[r] == bootstrap_all(r, 4)[r]


def _first_row(mu):
    return mu[0] if mu else 0


def test_box_bound_holds_and_is_attained():
    # every Schur shape of P_{r,n} has mu_1 <= 2n - 5 (the pengine
    # docstring derives it from the direct route), and some shape at each n
    # reaches it: a box one narrower would lose terms, one wider would
    # compute shapes that never occur
    blocks = [(n, block) for (r, n), block in TABLE_SCHUR.items()]
    blocks += [
        (6, SymPoly(6, ELEMENTARY, as_terms(block)).change_basis(SCHUR).terms)
        for block in TABLE_E6.values()
    ]
    blocks += [(n, direct_p(n).terms) for n in (3, 4)]
    widest = {}
    for n, block in blocks:
        for mu in block:
            widest[n] = max(widest.get(n, 0), _first_row(mu))
    assert widest == {n: box_width(n) for n in (3, 4, 5, 6)}


@pytest.mark.extended
def test_box_bound_direct_route_n5():
    assert max(map(_first_row, direct_p(5).terms)) == box_width(5)


def test_default_bootstrap_n7_matches_unpruned_bootstrap():
    # the oracle's capped integer class, box-restricted H images and
    # ribbons, the path `wk dtable` runs, against whole K^{-1} rows and
    # unpruned ribbons of the full A_{g,7}, beyond the golden tables
    every = bootstrap_all(6, 7)
    want = bootstrap_unpruned(6, 7, lambda g: oracle.a_gn_oracle(g, 7))
    assert {r: block_terms(view) for r, view in every.items()} == want


N7_TABLE = os.path.join(os.path.dirname(__file__), "dtable_n7.txt")
BENCH_TABLE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "dtable_n3-6.txt")


@pytest.mark.extended
def test_n7_table_certified_against_the_oracle():
    # A fresh full n = 7 build writes the committed table byte for byte, and
    # a_gn(g, 7) read from it equals the oracle's for every g <= r_max(7).
    # H is invertible, so that fixes every P_{r,7} by induction on r.
    oracle.clear_memo()
    table = DTable()
    table.ensure_upto(r_max(7), 7)
    with open(N7_TABLE, encoding="ascii") as fh:
        assert table.dumps() == fh.read()
    for g in range(r_max(7) + 1):
        assert intersect.a_gn(g, 7, dtable=table) == oracle.a_gn_oracle(g, 7), g


def test_tau_n7_matches_the_recursion():
    # the paper's regime on the committed n = 7 table: a Kostka column of
    # thousands of shapes, ribbon-lowered through twelve genera
    table = DTable.load(N7_TABLE)
    d = (6, 6, 6, 6, 6, 5, 5)
    assert intersect.tau(12, d, table) == oracle.virasoro_tau(12, d)


def _assert_string_identity(big, small, n):
    # P_{r,n} at u_n = 0 is e_1 * P_{r,n-1}, with P_{r,n-1} = 0 for
    # r > r_max(n-1): every Schur coefficient of a shape with fewer than n
    # rows is the sum of the P_{r,n-1} coefficients over the shapes one box
    # smaller (one Pieri step, written here so that the two table routes
    # share no code), and beyond r_max(n-1) every shape has n rows
    for r in range(r_max(n) + 1):
        got = {mu: c for mu, c in big.get(r, n).items() if len(mu) < n}
        want = {}
        if r <= r_max(n - 1):
            for nu, c in small.get(r, n - 1).items():
                rows = nu + (0,)
                for i in range(len(rows)):
                    if i == 0 or rows[i - 1] > rows[i]:
                        mu = tuple(p for p in rows[:i] + (rows[i] + 1,) + rows[i + 1:] if p)
                        want[mu] = want.get(mu, 0) + c
        assert got == {mu: c for mu, c in want.items() if c and len(mu) < n}, (n, r)


def test_n7_table_obeys_the_string_identity(dtable):
    dtable.ensure_upto(r_max(6), 6)
    _assert_string_identity(DTable.load(N7_TABLE), dtable, 7)


def test_tables_obey_the_string_identity(dtable):
    for n in (3, 4, 5, 6):
        dtable.ensure_upto(r_max(n), n)
        if n > 3:
            _assert_string_identity(dtable, dtable, n)


def test_put_drops_the_bead_view():
    # tau reads each block through its bead view; a block replaced through
    # put is read as replaced
    g, d = 3, (4, 3, 2, 1)
    table = DTable()
    first = intersect.tau(g, d, table)
    table.put(2, 4, {nu: 2 * v for nu, v in table.get(2, 4).items()})
    second = intersect.tau(g, d, table)
    fresh = DTable()
    for (r, n), block in table.blocks.items():
        fresh.put(r, n, block)
    assert second != first
    assert second == intersect.tau(g, d, fresh)


def test_bootstrap_refuses_fewer_than_three_points():
    for n in (1, 2):
        with pytest.raises(ValueError):
            bootstrap_all(0, n)


def test_admission_budget(monkeypatch):
    # every table up to n = 7 fits; an n = 1500 genus-0 table fails fast,
    # before the oracle is asked for its generating polynomial
    assert len(partition_class(degree_rn(15, 7), 7)) < MAX_CLASS_SIZE

    def refuse(g, n, cap):
        raise AssertionError("oracle called")

    monkeypatch.setattr(pengine, "integer_class", refuse)
    with pytest.raises(ValueError):
        bootstrap_all(0, 1500)
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        intersect.tau(0, (1497,) + (0,) * 1499)
    assert time.perf_counter() - t0 < 2


def test_direct_route_n3_and_truncation_stability():
    d3 = direct_p(3)
    want = SymPoly(3, SCHUR, {(): 1, (1, 1, 1): Rat(1, 2)})
    assert d3 == want
    assert direct_p(3, extra_truncation=3) == d3
    assert direct_p(4, extra_truncation=3) == direct_p(4)


def test_direct_route_guard():
    with pytest.raises(ValueError):
        direct_p(2)
    with pytest.raises(ValueError):
        direct_p(6)


def test_production_path_runs_no_direct_route_code(monkeypatch):
    # the two routes to the tables share no code: with the direct route's
    # polynomial type and its antisymmetrizing steps disabled, the bootstrap
    # and every query still run and still give the right numbers
    def refuse(*args, **kwargs):
        raise AssertionError("the production path reached the direct route")

    monkeypatch.setattr(laurent.LaurentPoly, "__init__", refuse)
    monkeypatch.setattr(laurent, "antisym_classes", refuse)
    monkeypatch.setattr(laurent, "class_mul_symmetric", refuse)
    oracle.clear_memo()
    every = bootstrap_all(3, 4)
    for r in range(4):
        assert block_terms(every[r]) == as_terms(TABLE_SCHUR[(r, 4)]), r
    table = DTable()
    for g, d in ((2, (3, 2, 1, 1)), (2, (7, 0, 0, 0)), (3, (3, 3, 2, 1, 0))):
        assert intersect.tau(g, d, table) == oracle.virasoro_tau(g, d), (g, d)
    want = oracle.a_gn_oracle(2, 4)
    assert intersect.a_gn(2, 4, MONOMIAL, table) == want
    assert intersect.a_gn(2, 4, ELEMENTARY, table) == want.change_basis(ELEMENTARY)
    numbers = intersect.w_gn(1, 3, table).intersection_numbers()
    assert numbers == oracle.a_gn_oracle(1, 3).terms


def test_genus_independence_overdetermined(dtable):
    # blocks assembled from genus <= r data must also satisfy the defining
    # identity 24^g H(A_{g,n}) = sum_r 12^r/(g-r)! p3^(g-r) P_{r,n} at
    # unused higher genera
    n = 4
    dtable.ensure_upto(r_max(n), n)
    hop = HContext(n)
    for g_extra in (4, 5):
        lhs = scale(hop.apply(oracle.a_gn_oracle(g_extra, n)), Rat(24) ** g_extra)
        rhs = SymPoly.zero(n, SCHUR)
        for r in range(min(g_extra, r_max(n)) + 1):
            term = dtable.p_rn(r, n)
            for _ in range(g_extra - r):
                term = power_sum_times_schur(term)
            rhs = rhs + scale(term, Rat(12 ** r, math.factorial(g_extra - r)))
        assert lhs == rhs, g_extra


def test_divisibility_by_top_elementary(dtable):
    # P_{r,n} - e_1 P_{r,n-1} is a multiple of e_n
    for n in (4, 5):
        dtable.ensure_upto(r_max(n), n)
        dtable.ensure_upto(r_max(n - 1), n - 1)
        for r in range(r_max(n - 1) + 1):
            big = dtable.p_rn(r, n).change_basis(ELEMENTARY)
            small = dtable.p_rn(r, n - 1).change_basis(ELEMENTARY)
            promoted = {}
            for lam, c in small.terms.items():
                promoted[tuple(sorted(lam + (1,), reverse=True))] = c
            diff = big - SymPoly(n, ELEMENTARY, promoted)
            for lam in diff.terms:
                assert lam and lam[0] == n, (r, n, lam)


def test_elementary_coefficients_stable_in_n(dtable):
    # the coefficient of e_nu e_1^(d-|nu|) in P_{r,n} does not depend on n
    # wherever the index fits at both widths
    for n in (3, 4):
        dtable.ensure_upto(r_max(n), n)
        dtable.ensure_upto(r_max(n + 1), n + 1)
        for r in range(r_max(n) + 1):
            small = dtable.p_rn(r, n).change_basis(ELEMENTARY)
            big = dtable.p_rn(r, n + 1).change_basis(ELEMENTARY)
            small_c = {}
            for lam, c in small.terms.items():
                small_c[tuple(x for x in lam if x >= 2)] = c
            big_c = {}
            for lam, c in big.terms.items():
                big_c[tuple(x for x in lam if x >= 2)] = c
            for nu, c in small_c.items():
                assert big_c.get(nu) == c, (r, n, nu)


def test_dtable_round_trip(tmp_path, dtable):
    dtable.ensure_upto(1, 3)
    dtable.ensure_upto(3, 4)
    path = tmp_path / "dtable.txt"
    dtable.save(path)
    data1 = path.read_bytes()
    loaded = DTable.load(path)
    assert loaded.blocks == {k: v for k, v in dtable.blocks.items()}
    loaded.save(path)
    assert path.read_bytes() == data1


def test_a_block_has_one_view_whatever_its_route():
    # the bootstrap, a load of its file and a put of its blocks store the
    # same canonical view (den the lcm of the reduced denominators) and
    # write the same bytes
    built = DTable()
    built.ensure_upto(r_max(5), 5)
    text = built.dumps()
    loaded = DTable.loads(text)
    again = DTable()
    for (r, n), block in built.blocks.items():
        again.put(r, n, block)
    assert loaded.views == built.views == again.views
    assert loaded.dumps() == again.dumps() == text
    fresh = bootstrap_all(r_max(5), 5)
    for (r, n), (den, ints, cores) in built.views.items():
        assert fresh[r] == built.views[(r, n)]
        assert den == math.lcm(*(v.denominator for v in built.get(r, n).values())), r
        assert cores == {runner_counts(beta) for beta in ints}


def test_dtable_loads_unreduced_and_zero_coefficients():
    # 2/4 loads as 1/2 and a zero line as no term; the header's count still
    # counts the lines, and the forms a Fraction reads beyond p/q still load
    data = "# dtable v1\nn=3 r=1 terms=2\n1,1,1 2/4\n2,1 0\n"
    table = DTable.loads(data)
    assert table.get(1, 3) == {(1, 1, 1): Rat(1, 2)}
    assert table.views[(1, 3)] == (2, {(3, 2, 1): 1}, {(1, 1, 1)})
    assert table.dumps() == "# dtable v1\nn=3 r=1 terms=1\n1,1,1 1/2\n"
    with pytest.raises(ValueError, match="has 2 of 1 terms"):
        DTable.loads(data.replace("terms=2", "terms=1"))
    assert DTable.loads(data.replace("2/4", "0.5")) == table


def test_n7_file_round_trips():
    with open(N7_TABLE, encoding="ascii") as fh:
        text = fh.read()
    assert DTable.loads(text).dumps() == text


def test_queries_on_a_loaded_table_convert_no_block(monkeypatch):
    # tau, a_gn and w_gn read the views a load stores: nothing turns a
    # block into partitions and Rats, or back into beads, on the way
    table = DTable.load(BENCH_TABLE)
    taus = [(3, (4, 3, 2, 1)), (6, (8, 6, 4, 2, 0)), (5, (18, 0, 0, 0, 0, 0))]
    want_tau = [oracle.virasoro_tau(g, d) for g, d in taus]
    want_a = oracle.a_gn_oracle(3, 5)
    want_w = oracle.a_gn_oracle(2, 4).terms

    def refuse(*args, **kwargs):
        raise AssertionError("a query converted a table block")

    for name in ("hook_numbers", "runner_counts", "shape_of_beads", "Rat"):
        monkeypatch.setattr(pengine, name, refuse)
    assert [intersect.tau(g, d, table) for g, d in taus] == want_tau
    assert intersect.a_gn(3, 5, MONOMIAL, table) == want_a
    assert intersect.w_gn(2, 4, table).intersection_numbers() == want_w


def test_dtable_header_validation(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# dtable v2\n")
    with pytest.raises(ValueError):
        DTable.load(p)


def _golden_table():
    t = DTable()
    for (r, n), block in TABLE_SCHUR.items():
        t.put(r, n, as_terms(block))
    return t


def test_dtable_truncated_at_every_byte():
    table = _golden_table()
    data = table.dumps()
    assert DTable.loads(data) == table
    sizes = set()
    for cut in range(len(data)):
        try:
            loaded = DTable.loads(data[:cut])
        except ValueError:
            continue
        for key, block in loaded.blocks.items():
            assert block == table.blocks[key], (cut, key)
        sizes.add(len(loaded.blocks))
    # only the cuts at block boundaries load, each the blocks before it
    assert sizes == set(range(len(table.blocks)))


def test_dtable_block_term_count():
    table = DTable()
    table.put(1, 3, {(1, 1, 1): Rat(1, 2)})
    data = table.dumps()
    assert data == "# dtable v1\nn=3 r=1 terms=1\n1,1,1 1/2\n"
    with pytest.raises(ValueError):
        DTable.loads(data.replace("terms=1", "terms=2"))
    with pytest.raises(ValueError):
        DTable.loads(data[:-1])
    # headers without a count load, and write back without one
    legacy = data.replace(" terms=1", "")
    assert DTable.loads(legacy) == table
    assert DTable.loads(legacy).dumps() == legacy


def test_dtable_rejects_a_repeated_block():
    # a later block with the same (n, r) must not replace the first one
    data = "# dtable v1\nn=3 r=0 terms=1\n- 1\n\nn=3 r=0 terms=1\n- 2\n"
    with pytest.raises(ValueError, match="line 5 repeats block"):
        DTable.loads(data)
    with pytest.raises(ValueError, match="repeats block"):
        DTable.loads(data.replace(" terms=1", ""))


def test_dtable_rejects_a_repeated_partition():
    # a later line for the same partition must not replace the earlier one,
    # whether or not the header counts the block's terms
    data = "# dtable v1\nn=3 r=0 terms=1\n- 1\n- 2\n"
    with pytest.raises(ValueError, match="line 4 repeats partition - in block"):
        DTable.loads(data)
    with pytest.raises(ValueError, match="line 4 repeats partition -"):
        DTable.loads(data.replace(" terms=1", ""))
    with pytest.raises(ValueError, match="line 4 repeats partition 1,1,1"):
        DTable.loads("# dtable v1\nn=3 r=1 terms=2\n1,1,1 1/2\n1,1,1,0 1/2\n")


def test_dtable_rejects_a_coefficient_before_any_header():
    with pytest.raises(ValueError, match="line 2: coefficient before any block header"):
        DTable.loads("# dtable v1\n- 1\nn=3 r=0 terms=1\n- 1\n")


def test_dtable_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="line 3: zero denominator"):
        DTable.loads("# dtable v1\nn=3 r=0 terms=1\n- 1/0\n")


@pytest.mark.parametrize("line", ["- 1 2", "-", "x 1", "1,a 1"])
def test_dtable_malformed_coefficient_line_names_its_line(line):
    with pytest.raises(ValueError, match="line 3: malformed coefficient line %r" % line):
        DTable.loads("# dtable v1\nn=3 r=0 terms=1\n%s\n" % line)


def test_dtable_rejects_a_partition_that_cannot_occur_at_its_line():
    with pytest.raises(ValueError, match="line 3: coefficient at weight 1 in block"):
        DTable.loads("# dtable v1\nn=3 r=0 terms=1\n1 1\n")
    with pytest.raises(ValueError, match="line 3: partition 2,1,1,1,1,1 has more than 4 rows"):
        DTable.loads("# dtable v1\nn=4 r=2\n2,1,1,1,1,1 1/5\n")


def test_dtable_out_of_range_block_names_its_line():
    with pytest.raises(ValueError, match="line 4: component index 9 out of range for n=3"):
        DTable.loads("# dtable v1\nn=3 r=0 terms=1\n- 1\nn=3 r=9 terms=1\n1 1\n")


def test_dtable_term_count_mismatch_names_its_header_line():
    data = "# dtable v1\nn=3 r=0 terms=1\n- 1\n\nn=3 r=1 terms=2\n1,1,1 1/2\n"
    with pytest.raises(ValueError, match=r"line 5: block \(r=1, n=3\) has 1 of 2 terms"):
        DTable.loads(data)


def test_dtable_file_with_crlf_line_ends_loads(tmp_path):
    text = "# dtable v1\nn=3 r=0 terms=1\n- 1\n\nn=3 r=1 terms=1\n1,1,1 1/2\n"
    path = tmp_path / "dtable.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    assert DTable.load(path) == DTable.loads(text)


def test_dtable_put_validates():
    t = DTable()
    with pytest.raises(ValueError):
        t.put(5, 3, {})
    with pytest.raises(ValueError):
        t.put(1, 3, {(2,): Rat(1)})  # wrong weight


def test_shift_invariance_trivial_and_random():
    rng = random.Random(17)

    def rand_mat():
        return tuple(tuple(Rat(rng.randint(-5, 5)) for _ in range(2)) for _ in range(2))

    for n in (3, 4):
        mats = [rand_mat() for _ in range(n)]
        xs = rng.sample(range(1, 30), n)
        assert trace_shift_invariance(mats, xs, [0] * n)
        shifts = [Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        assert trace_shift_invariance(mats, xs, shifts)
    assert trace_shift_invariance(
        [rand_mat() for _ in range(3)], (1, 2, 3), (1, 0, 0)
    )


def test_shift_invariance_validation():
    m = ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
    with pytest.raises(ValueError):
        trace_shift_invariance([m, m], (1, 2), (0, 0))
    with pytest.raises(ValueError):
        trace_shift_invariance([m, m, m], (1, 1, 2), (0, 0, 0))
