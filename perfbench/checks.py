"""Expected values, each computed by a route that shares no code with the
timed call it checks, and the comparisons that count a wrong value.

* tau, n = 1:       1 / (24^g g!)
* tau, n = 2:       the classical two-point series ``series_reference("A2")``
* tau, genus 0:     the multinomial (n-3)! / prod d_i!
* tau, n >= 3:      the Virasoro recursion ``virasoro_tau``
* a_gn, w_gn:       the recursion's generating polynomial ``a_gn_oracle``
* tables:           the published tables in ``tests/golden_tables.py``, and
                    the determinantal route ``direct_p`` against the sum
                    of the bootstrapped components
"""

import math
from fractions import Fraction

from wkintersect import oracle
from wkintersect.pengine import DTable
from wkintersect.sympoly import ELEMENTARY

import golden_tables
from workloads import r_max


def _as_fraction(v):
    return Fraction(str(v))


def genus0(d):
    n = len(d)
    den = 1
    for x in d:
        den *= math.factorial(x)
    return Fraction(math.factorial(n - 3), den)


def one_point(g):
    return Fraction(1, 24 ** g * math.factorial(g))


def expected_values(ops):
    """{op: expected} for the tau / a_gn / w_gn / oracle operations."""
    g2 = max([op[1] for op in ops if op[0] == "tau" and len(op[2]) == 2] + [1])
    two_point = oracle.series_reference("A2", g2)
    out = {}
    for op in ops:
        kind, g = op[0], op[1]
        if kind in ("tau", "oracle"):
            d = op[2]
            lam = tuple(sorted(d, reverse=True))
            if g == 0:
                out[op] = genus0(d)
            elif len(d) == 1:
                out[op] = one_point(g)
            elif len(d) == 2:
                out[op] = _as_fraction(two_point[g].terms.get(_trim(lam), 0))
            else:
                out[op] = _as_fraction(oracle.virasoro_tau(g, d))
        elif kind in ("a_gn", "w_gn"):
            terms = oracle.a_gn_oracle(g, op[2]).terms
            out[op] = {k: _as_fraction(v) for k, v in terms.items()}
    return out


def _trim(lam):
    return tuple(x for x in lam if x)


def value_ok(op, got, want):
    """Exact comparison of an operation's output with its expected value."""
    if op[0] in ("a_gn", "w_gn"):
        got = {_trim(k): _as_fraction(v) for k, v in got.items() if v}
        return got == want
    return _as_fraction(got) == want


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _golden_schur(r, n):
    return {k: Fraction(v) for k, v in golden_tables.TABLE_SCHUR[(r, n)].items()}


def _golden_e6(r):
    return {k: Fraction(v) for k, v in golden_tables.TABLE_E6[r].items()}


def table_errors(data, blocks):
    """Problems with the cache file contents ``data``, which should hold
    exactly ``blocks`` ((r, n) pairs): golden mismatch, missing or extra
    blocks, or bytes that do not survive a load/dump round trip."""
    table = DTable.loads(data)
    errors = []
    if table.dumps() != data:
        errors.append("re-serialised bytes differ")
    if set(table.blocks) != set(blocks):
        errors.append("blocks %s, expected %s" % (sorted(table.blocks), sorted(blocks)))
    for (r, n) in sorted(set(blocks) & set(table.blocks)):
        if n <= 5:
            got = {k: _as_fraction(v) for k, v in table.get(r, n).items()}
            want = _golden_schur(r, n)
        else:
            got = {k: _as_fraction(v) for k, v in
                   table.p_rn(r, n).change_basis(ELEMENTARY).terms.items()}
            want = _golden_e6(r)
        if got != want:
            errors.append("block (r=%d, n=%d) differs from the golden table" % (r, n))
    return errors


def direct_errors(data, n, terms):
    """``direct_p(n)`` (its Schur terms) against the sum over r of the
    bootstrapped P_{r,n} in the cache file contents ``data``."""
    total = {}
    for (r, m), block in DTable.loads(data).blocks.items():
        if m == n:
            for k, v in block.items():
                total[k] = total.get(k, 0) + _as_fraction(v)
    total = {k: v for k, v in total.items() if v}
    got = {_trim(k): _as_fraction(v) for k, v in terms.items() if v}
    if not total:
        return ["no n=%d blocks in the table" % n]
    return [] if got == total else ["direct_p(%d) differs from the sum of the table" % n]


def dtable_blocks(argv):
    """The (r, n) blocks a ``dtable`` invocation is meant to store."""
    n = int(argv[argv.index("-n") + 1])
    top = int(argv[argv.index("--r-max") + 1]) if "--r-max" in argv else r_max(n)
    return {(r, n) for r in range(top + 1)}


def input_table_errors(data, n6_r):
    """The committed input table: n = 3..5 in full and n = 6 up to n6_r,
    against the published tables."""
    want = {(r, n) for n in (3, 4, 5) for r in range(r_max(n) + 1)}
    want |= {(r, 6) for r in range(n6_r + 1)}
    return table_errors(data, want)
