"""The genus-independent coefficient tables and the two independent ways
of producing them.

``bootstrap_all`` assembles the degree-(3r-3+n) components of the master
polynomial from the oracle's generating polynomials:

    P_{r,n} = sum_{g<=r} 2^g (-1)^(r-g) p_3^(r-g) / (12^(r-g) (r-g)!) H(A_{g,n})

``direct_p`` evaluates the determinantal realization instead: the trace
of a product of explicit 2x2 Laurent matrices, dressed with truncated
cubic exponentials, hit with a reduced grid of derivative differences,
antisymmetrized and divided by the Vandermonde, in integers over one
denominator per polynomial (:mod:`laurent`).  The two routes share no
code beyond exact arithmetic, so their agreement validates both.

The box.  Every Schur shape mu of P_{r,n} has mu_1 <= 2n - 5, as the
direct route shows (it equals P_n by the paper; the tests check that at
n <= 5).  In u, tr prod_i Mtilde(u_i) has degree at most 2 in each u_i,
3/2 after the division by sqrt(e_n).  Conjugating by exp(+-p_3/12) turns
each derivative difference into (d_i + u_i^2/4) - (d_j + u_j^2/4); each
variable sits in n - 3 non-adjacent pairs, which add at most 2(n - 3) to
its degree, and e_n^(n-3/2) adds n - 3/2.  So every alternant of the
numerator has beta_1 <= 3n - 6, and mu_1 = beta_1 - (n - 1) <= 2n - 5.
p_3 only adds cells, so the bootstrap computes H(A_{g,n}) and each ribbon
image on the box shapes alone (``box_width``).  The alternant read of a
box shape meets only exponents alpha <= beta, so the oracle is asked only
for the lam with lam_1 <= 3n - 6 (4 548 of the 16 475 partitions at
(g, n) = (15, 7)).

The string identity: for n >= 4, P_{r,n} at u_n = 0 is e_1 P_{r,n-1},
with P_{r,n-1} = 0 for r > r_max(n-1), in four steps.
1. The string equation <tau_0 tau_lam>_g = sum_i <tau_{lam - e_i}>_g
   reads A_{g,n} at u_n = 0 as e_1 A_{g,n-1}.
2. H commutes with setting u_n = 0: N_{mu,lam} does not depend on the
   number of rows, and neither do the inverse Kostka numbers of the
   shapes with fewer than n rows, the only ones that survive.
3. H commutes with multiplication by e_1: dden(lam + e_i) / dden(lam) =
   2 lam_i + 3 and gnum(mu + box) / gnum(mu) = 2 c(box) + 3, c the
   content.  This step is only measured (on every block of n = 4..8),
   not proven.
4. p_3 commutes with both, and P_{r,n} is triangular in g, a sum of the
   p_3^(r-g) H(A_{g,n}) over g <= r, so the identity passes to each P_r.
The tests check it on every table they build, in code of their own.

The whole route runs in integers and on beads.  The oracle's class
{lam: T(g, lam)}, T = 2^(4g-2+n) dden(lam) <tau_lam>_g, is the form H
reads (``hop.h_integers``).  H gives y_beta / den_g on the box shapes,
keyed by beads, the p_3 ribbon chain moves the beads, and each P_r sums
its images over the common denominator of the weights
(-1)^k 2^g / (12^k k! den_g).  Reduced to the lowest common denominator,
these integers are the block's bead view (``bead_view``), which the table
stores as it comes; no partition and no ``Rat`` is built on the way.

``DTable`` is the persistent store of the P_{r,n}: one bead view per
block, the form every query reads.  Its line-oriented ASCII format is
canonical (identical tables serialize to identical bytes), and a load
parses each line straight into the view, in integers.
"""

import math

from .rational import Rat
from .partitions import (
    count_partitions,
    format_partition,
    hook_numbers,
    parse_partition,
    ptrim,
)
from . import laurent
from .hop import barnes_constant, h_integers
from .oracle import integer_class
from .sympoly import SCHUR, SymPoly, raise_ribbons, runner_counts, shape_of_beads

FILE_HEADER = "# dtable v1"

# admission budget: the most partitions the top weight class of a bootstrap may
# hold, counted without enumerating them (an n = 7 table up to r = 15 needs
# 16 475; n = 6 needs 1 729)
MAX_CLASS_SIZE = 20000

# the direct route's cost grows like n!; beyond this it is refused
DIRECT_ROUTE_MAX_N = 5


def r_max(n):
    """Largest homogeneous index: (n-1)(n-2)/2."""
    return (n - 1) * (n - 2) // 2


def _check_index(r, n):
    if not 0 <= r <= r_max(n):
        raise ValueError("component index %d out of range for n=%d" % (r, n))


def degree_rn(r, n):
    return 3 * r - 3 + n


def box_width(n):
    """Bound 2n - 5 on the first row of every Schur shape of every P_{r,n}
    (derived in the module docstring)."""
    return 2 * n - 5


# ---------------------------------------------------------------------------
# Bootstrap route
# ---------------------------------------------------------------------------


def bead_view(den, ints):
    """The canonical view of the block {beta: ints[beta] / den} (beta the
    beta numbers of the Schur shape): (den, {beta: den * coefficient}, the
    3-abacus runner counts of its shapes), zero terms dropped and den the
    lcm of the reduced denominators, so equal blocks have equal views."""
    ints = {beta: c for beta, c in ints.items() if c}
    g = math.gcd(den, *ints.values())
    if g > 1:
        den //= g
        ints = {beta: c // g for beta, c in ints.items()}
    return den, ints, {runner_counts(beta) for beta in ints}


def block_terms(view):
    """{nu: coefficient} of a bead view, the block in partitions and Rats."""
    den, ints, _ = view
    return {shape_of_beads(beta): Rat(c, den) for beta, c in ints.items()}


def bootstrap_all(r_top, n):
    """All components P_{0,n} .. P_{r_top,n} as bead views {r: view} (see
    ``bead_view``), in integers from the oracle's classes (lam_1 <= 3n - 6)
    to the table, restricted to the shapes with mu_1 <= 2n - 5 (see the
    module docstring)."""
    if n < 3:
        raise ValueError("the bootstrap starts at n = 3")
    _check_index(r_top, n)
    d = degree_rn(r_top, n)
    if count_partitions(d, n, MAX_CLASS_SIZE) > MAX_CLASS_SIZE:
        raise ValueError(
            "bootstrap of (r=%d, n=%d) needs more than %d partitions of %d"
            % (r_top, n, MAX_CLASS_SIZE, d)
        )
    width = box_width(n)
    top = width + n - 1  # the largest bead of a box shape, = 3n - 6
    # per genus: H(A_{g,n}) = y / den on the box shapes, y keyed by beads
    images = []
    for g in range(r_top + 1):
        scale, padded = integer_class(g, n, top)
        lcm, y = h_integers(padded, n, width)
        images.append((scale * lcm, y))
    # p_3^k H(A_{g,n}) enters P_{g+k,n} with (-1)^k 2^g / (12^k k! den_g);
    # each P_r sums in integers over the lcm of those denominators
    def den(g, r):
        return 12 ** (r - g) * math.factorial(r - g) * images[g][0]

    common = [math.lcm(*(den(g, r) for g in range(r + 1))) for r in range(r_top + 1)]
    acc = [{} for _ in range(r_top + 1)]
    for g, (_, term) in enumerate(images):
        for r in range(g, r_top + 1):
            w = (-1) ** (r - g) * 2**g * (common[r] // den(g, r))
            into = acc[r]
            for beta, v in term.items():
                into[beta] = into.get(beta, 0) + w * v
            if r < r_top:
                term = raise_ribbons(term, top)
    out = {}
    for r, into in enumerate(acc):
        out[r] = view = bead_view(common[r], into)
        if any(sum(beta) != degree_rn(r, n) + n * (n - 1) // 2 for beta in view[1]):
            raise AssertionError("inhomogeneous bootstrap output at (r=%d, n=%d)" % (r, n))
    return out


# ---------------------------------------------------------------------------
# Direct determinantal route
# ---------------------------------------------------------------------------


def _mtilde4(n, i):
    """4 Mtilde(u_i) = [[-2u, -4], [u^2 + 2/u, 2u]] in slot i, in integers."""
    lp = laurent.LaurentPoly
    a = lp.variable_power(n, i, 2, -2)
    b = lp.constant(n, -4)
    c = lp.variable_power(n, i, 4) + lp.variable_power(n, i, -2, 2)
    d = lp.variable_power(n, i, 2, 2)
    return ((a, b), (c, d))


def trace_mtilde_product(n):
    """Tr prod_i Mtilde(u_i) as a LaurentPoly in n variables: the trace of
    the integer matrices 4 Mtilde(u_i), over the denominator 4^n."""
    m = _mtilde4(n, 0)
    for i in range(1, n):
        mi = _mtilde4(n, i)
        m = (
            (m[0][0] * mi[0][0] + m[0][1] * mi[1][0], m[0][0] * mi[0][1] + m[0][1] * mi[1][1]),
            (m[1][0] * mi[0][0] + m[1][1] * mi[1][0], m[1][0] * mi[0][1] + m[1][1] * mi[1][1]),
        )
    return laurent.LaurentPoly(n, (m[0][0] + m[1][1]).terms, 4**n)


def direct_p(n, extra_truncation=0):
    """Full P_n (all homogeneous components) by the determinantal route.

    The derivative grid runs over the cyclically non-adjacent index pairs:
    the Vandermonde divided by the cyclic-denominator product leaves
    - prod_{j >= i+2, (i,j) != (1,n)} (x_i - x_j), whose factors turn into
    derivative differences under the Laplace transform.  (Including the
    wrap-around pair (1, n) would make the whole antisymmetrization vanish
    by reversal symmetry of the trace.)

    Every step runs on the integer :class:`~wkintersect.laurent.LaurentPoly`
    over one denominator; a ``Rat`` is built once per emitted coefficient.

    Exact up to the nominal maximum degree; raising ``extra_truncation``
    by multiples of 3 widens every internal series truncation, which must
    not change the result.  Cost grows like n!, so n is capped at
    ``DIRECT_ROUTE_MAX_N``.
    """
    if n < 3:
        raise ValueError("the determinantal route starts at n = 3")
    if n > DIRECT_ROUTE_MAX_N:
        raise ValueError("n = %d beyond the direct-route limit %d" % (n, DIRECT_ROUTE_MAX_N))
    dmax = 3 * r_max(n) - 3 + n + 3 * extra_truncation
    # a working term of doubled degree D lands at final doubled degree
    # >= D + n, so the working polynomial may be capped tightly
    work_cap = 2 * dmax - n
    series_cap = work_cap + 3 * n

    work = trace_mtilde_product(n).shift_all(-1)  # divide by sqrt(e_n)
    work = work.mul(laurent.exp_p3(n, +1, series_cap), work_cap)
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            work = work.diff(i) - work.diff(j)
    classes = laurent.antisym_classes(work)
    # the exact window ends at doubled degree 2 dmax + n(n - 1) and the shift
    # by e_n^(n - 3/2) adds n(2n - 3), so a product above 2 dmax - n(n - 2)
    # is a truncation artifact
    classes = laurent.class_mul_symmetric(
        classes, laurent.exp_p3(n, -1, series_cap), 2 * dmax - n * (n - 2)
    )
    classes = classes.shift_all(2 * n - 3)  # e_n^(n - 3/2)

    # P_n = classes / (den D_n n 2^(n-1)), divided once per coefficient
    norm = barnes_constant(n) * n * (1 << (n - 1))
    num, den = norm.denominator, norm.numerator * classes.den
    terms = {}
    for ex, c in classes.terms.items():
        if any(e % 2 for e in ex):
            raise AssertionError("half-integer exponent in direct route output")
        if ex[-1] < 0:
            raise AssertionError("uncancelled pole in direct route output")
        mu = ptrim(ex[i] // 2 - (n - i - 1) for i in range(n))
        d = sum(mu)
        if (d - (n - 3)) % 3:
            raise AssertionError("off-lattice degree %d in direct route output" % d)
        terms[mu] = Rat(c * num, den)
    return SymPoly._make(n, SCHUR, terms)


# ---------------------------------------------------------------------------
# Persistent coefficient tables
# ---------------------------------------------------------------------------


class DTable:
    """Map (r, n) -> the block P_{r,n}, with a canonical ASCII file form.

    ``views[(r, n)]`` holds each block once, as its bead view
    (``bead_view``): the integers the formula's dot products read, so a
    loaded or bootstrapped table is ready for every query.  ``get``,
    ``p_rn`` and ``blocks`` give blocks in partitions and Rats, built per
    call; ``put`` converts on the way in."""

    def __init__(self):
        self.views = {}
        # block headers carry their term count; a table loaded from a file
        # without counts writes none, so it re-serialises to the same bytes
        self.counted = True

    def has(self, r, n):
        return (r, n) in self.views

    def get(self, r, n):
        return block_terms(self.views[(r, n)])

    @property
    def blocks(self):
        """{(r, n): {nu: coefficient}} for every block."""
        return {key: block_terms(view) for key, view in self.views.items()}

    def put(self, r, n, coeffs):
        _check_index(r, n)
        want = degree_rn(r, n)
        vals = {}
        for k, v in coeffs.items():
            v = Rat(v)
            beta = _checked_beads(ptrim(k), want, r, n)
            if v:
                vals[beta] = v
        den = math.lcm(*(v.denominator for v in vals.values()))
        self.views[(r, n)] = bead_view(
            den, {beta: v.numerator * (den // v.denominator) for beta, v in vals.items()}
        )

    def ensure_upto(self, r_top, n):
        """The bead views of P_{0,n} .. P_{r_top,n}, bootstrapping the blocks
        the table lacks."""
        if not all(self.has(r, n) for r in range(r_top + 1)):
            for r, view in bootstrap_all(r_top, n).items():
                self.views.setdefault((r, n), view)
        return [self.views[(r, n)] for r in range(r_top + 1)]

    def p_rn(self, r, n):
        return SymPoly(n, SCHUR, self.get(r, n))

    # -- serialization --------------------------------------------------

    def dumps(self):
        lines = [FILE_HEADER]
        for (r, n) in sorted(self.views, key=lambda rn: (rn[1], rn[0])):
            if len(lines) > 1:
                lines.append("")
            den, ints, _ = self.views[(r, n)]
            head = "n=%d r=%d" % (n, r)
            lines.append(head + " terms=%d" % len(ints) if self.counted else head)
            # beta numbers sort as their shapes do; bead i sits at n - 1 - i
            # for a zero row
            base = range(n - 1, -1, -1)
            for beta in sorted(ints, reverse=True):
                c = ints[beta]
                g = math.gcd(c, den)
                nu = ",".join([str(b - z) for b, z in zip(beta, base) if b != z]) or "-"
                if g == den:
                    lines.append("%s %d" % (nu, c // g))
                else:
                    lines.append("%s %d/%d" % (nu, c // g, den // g))
        return "\n".join(lines) + "\n"

    def save(self, path):
        # bytes, so that no process that touches a cache imports a codec
        data = self.dumps().encode("ascii")
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def loads(cls, data):
        """Parse the file form straight into bead views.  A block header is
        exactly ``n=N r=R terms=T``; it must be followed by exactly T
        coefficient lines and the data must end in a newline, so a truncated
        file is rejected instead of loading as a smaller block.  Headers
        without a term count still load.  Any other header, a repeated
        (n, r) header, a partition repeated within a block or with more than
        n rows or of the wrong weight, a coefficient line before the first
        header, one that is not a partition and a coefficient, and a zero
        denominator are rejected too.  A coefficient ``p/q`` need not be
        reduced, and a zero one counts as a line but stores no term."""
        lines = data.splitlines()
        if not lines or lines[0] != FILE_HEADER:
            raise ValueError("unrecognized table header")
        if not data.endswith("\n"):
            raise ValueError("truncated table: no final newline")
        table = cls()
        cur = want = head = None
        pending = {}  # beta -> (numerator, denominator) of the current block

        def flush():
            if cur is None:
                return
            if want is not None and want != len(pending):
                raise ValueError(
                    "line %d: block (r=%d, n=%d) has %d of %d terms"
                    % ((head,) + cur + (len(pending), want))
                )
            den = math.lcm(*(q for _, q in pending.values()))
            table.views[cur] = bead_view(den, {b: p * (den // q) for b, (p, q) in pending.items()})

        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("n="):
                flush()
                toks = [t.partition("=") for t in line.split()]
                if [k for k, _, _ in toks] not in (["n", "r"], ["n", "r", "terms"]) or not all(
                    v.isdigit() for _, _, v in toks
                ):
                    raise ValueError("line %d: malformed block header %r" % (lineno, line))
                n, r, *count = (int(v) for _, _, v in toks)
                cur, head = (r, n), lineno
                if cur in table.views:
                    raise ValueError("line %d repeats block (r=%d, n=%d)" % ((lineno,) + cur))
                try:
                    _check_index(r, n)
                except ValueError as exc:
                    raise ValueError("line %d: %s" % (lineno, exc)) from None
                weight = degree_rn(r, n)
                want = count[0] if count else None
                table.counted = table.counted and bool(count)
                pending = {}
            else:
                if cur is None:
                    raise ValueError("line %d: coefficient before any block header" % lineno)
                try:
                    ptok, vtok = line.split()
                    nu = parse_partition(ptok)
                    value = _ratio(vtok)
                except ValueError:
                    raise ValueError("line %d: malformed coefficient line %r" % (lineno, line)) from None
                except ZeroDivisionError:
                    raise ValueError("line %d: zero denominator in %r" % (lineno, line)) from None
                try:
                    beta = _checked_beads(nu, weight, *cur)
                except ValueError as exc:
                    raise ValueError("line %d: %s" % (lineno, exc)) from None
                if beta in pending:
                    raise ValueError(
                        "line %d repeats partition %s in block (r=%d, n=%d)"
                        % ((lineno, format_partition(nu)) + cur)
                    )
                pending[beta] = value
        flush()
        return table

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.loads(fh.read().decode("ascii"))

    def __eq__(self, other):
        return isinstance(other, DTable) and self.views == other.views


def _ratio(text):
    """(p, q), q > 0, of a coefficient p/q or p as a Fraction reads it, not
    reduced: the canonical forms in integers, any other through Fraction."""
    num, slash, den = text.partition("/")
    if (num[1:] if num[:1] in "+-" else num).isdecimal() and (not slash or den.isdecimal()):
        q = int(den) if slash else 1
        if not q:
            raise ZeroDivisionError(text)
        return int(num), q
    v = Rat(text)
    return v.numerator, v.denominator


def _checked_beads(nu, weight, r, n):
    """The beta numbers of the trimmed partition nu in block (r, n) of the
    given weight; ValueError if nu cannot occur there."""
    if sum(nu) != weight:
        raise ValueError("coefficient at weight %d in block (r=%d, n=%d)" % (sum(nu), r, n))
    if len(nu) > n:
        raise ValueError("partition %s has more than %d rows" % (format_partition(nu), n))
    return hook_numbers(nu, n)
