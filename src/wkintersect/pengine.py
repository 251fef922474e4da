"""The genus-independent coefficient tables and the two independent ways
of producing them.

``bootstrap_all`` assembles the degree-(3r-3+n) components of the master
polynomial from the oracle's generating polynomials:

    P_{r,n} = sum_{g<=r} 2^g (-1)^(r-g) p_3^(r-g) / (12^(r-g) (r-g)!) H(A_{g,n})

``direct_p`` evaluates the determinantal realization instead: the trace
of a product of explicit 2x2 Laurent matrices, dressed with truncated
cubic exponentials, hit with a reduced grid of derivative differences,
antisymmetrized and divided by the Vandermonde.  It runs in integers
over one denominator per polynomial (:mod:`laurent`): the matrices are
scaled by 4, exp(+-p_3/12) goes over the common denominator 12^K K!, and
each derivative doubles the denominator.  The two routes share no code
beyond exact arithmetic, which is the point: their agreement validates
both.

Every Schur shape mu of P_{r,n} satisfies mu_1 <= 2n - 5, which the
direct route shows (it equals P_n by the paper; the tests check that at
n <= 5).  In the variable u, tr prod_i Mtilde(u_i) has degree at most 2
in each u_i, and at most 3/2 after the division by sqrt(e_n).
Conjugating by exp(+-p_3/12) turns each derivative difference into
(d_i + u_i^2/4) - (d_j + u_j^2/4), with d_i = d/du_i; each variable sits
in n - 3 of the non-adjacent pairs, which add at most 2(n - 3) to its
degree.  The factor e_n^(n-3/2) adds n - 3/2.  So the largest entry
beta_1 of every alternant in the numerator is at most 3n - 6, and
mu_1 = beta_1 - (n - 1) <= 2n - 5.  Multiplication by p_3 only adds
cells, so the bootstrap computes H(A_{g,n}) and each ribbon image on the
shapes inside that box alone (``box_width``).

The box also bounds what the bootstrap asks the oracle for.  [s_mu] of a
monomial combination f is the coefficient of x^beta, beta = mu + delta,
in a_delta f: a signed sum of [m_alpha] f over alpha = beta - w(delta),
whose entries are at most those of beta.  In the box beta_1 =
mu_1 + n - 1 <= 3n - 6, so only the lam with lam_1 <= 3n - 6 are read
(4 548 of the 16 475 partitions at (g, n) = (15, 7)).

The whole route runs in integers.  The oracle's class
{lam: T(g, lam)} over lam_1 <= 3n - 6, with T = 2^(4g-2+n)
prod (2 lam_i + 1)!! <tau_lam>_g, is already dden(lam) times the monomial
coefficients of A_{g,n} up to the scale 2^(4g-2+n), which is what H reads
(``hop.h_integers``).  H gives y_mu / den_g on the box shapes, the p_3
ribbon chain runs on those integers, and each P_r sums its images over the
common denominator of the weights (-1)^k 2^g / (12^k k! den_g), so a
``Rat`` is built once per emitted coefficient.

``DTable`` is the persistent store for the Schur coefficients of the
P_{r,n}; its line-oriented ASCII format is canonical (identical tables
serialize to identical bytes).
"""

import math
from itertools import islice

from .rational import Rat, rat_from_str
from .partitions import (
    enumerate_partitions,
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

# admission budget: the most partitions a bootstrap may enumerate in its top
# weight class (an n = 7 table up to r = 15 needs 16 475; n = 6 needs 1 729)
MAX_CLASS_SIZE = 20000

# the direct route's cost grows like n!; beyond this it is refused
DIRECT_ROUTE_MAX_N = 5


def r_max(n):
    """Largest homogeneous index: (n-1)(n-2)/2."""
    return (n - 1) * (n - 2) // 2


def degree_rn(r, n):
    return 3 * r - 3 + n


def box_width(n):
    """Bound 2n - 5 on the first row of every Schur shape of every P_{r,n}
    (derived in the module docstring)."""
    return 2 * n - 5


# ---------------------------------------------------------------------------
# Bootstrap route
# ---------------------------------------------------------------------------


def bootstrap_all(r_top, n):
    """All components P_{0,n} .. P_{r_top,n} in the Schur basis, in integers
    from the oracle's classes (lam_1 <= 3n - 6) to the table, restricted to
    the shapes with mu_1 <= 2n - 5 (see the module docstring)."""
    if n < 3:
        raise ValueError("the bootstrap starts at n = 3")
    if not 0 <= r_top <= r_max(n):
        raise ValueError("component index %d out of range for n=%d" % (r_top, n))
    d = degree_rn(r_top, n)
    if sum(1 for _ in islice(enumerate_partitions(d, n), MAX_CLASS_SIZE + 1)) > MAX_CLASS_SIZE:
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
        images.append((scale * lcm, {hook_numbers(mu, n): c for mu, c in y.items()}))
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
                term = raise_ribbons(term, 3, top)
    out = {}
    for r, into in enumerate(acc):
        terms = {shape_of_beads(beta): Rat(v, common[r]) for beta, v in into.items() if v}
        if any(sum(mu) != degree_rn(r, n) for mu in terms):
            raise AssertionError("inhomogeneous bootstrap output at (r=%d, n=%d)" % (r, n))
        out[r] = SymPoly._make(n, SCHUR, terms)
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
    """Map (r, n) -> {nu: coefficient} with a canonical ASCII file form.

    ``beads(r, n)`` gives an integer view of a block for the formula's dot
    products, built when a query first reads the block.  Blocks are
    therefore replaced through ``put``, which drops the view; a block must
    not be mutated in place once a query has read it."""

    def __init__(self):
        self.blocks = {}
        self._beads = {}
        # block headers carry their term count; a table loaded from a file
        # without counts writes none, so it re-serialises to the same bytes
        self.counted = True

    def has(self, r, n):
        return (r, n) in self.blocks

    def get(self, r, n):
        return self.blocks[(r, n)]

    def put(self, r, n, coeffs):
        if not 0 <= r <= r_max(n):
            raise ValueError("component index %d out of range for n=%d" % (r, n))
        want = degree_rn(r, n)
        clean = {}
        for k, v in coeffs.items():
            k = ptrim(k)
            v = Rat(v)
            if sum(k) != want:
                raise ValueError("coefficient at weight %d in block (r=%d, n=%d)" % (sum(k), r, n))
            if len(k) > n:
                raise ValueError("partition %s has more than %d rows" % (format_partition(k), n))
            if v:
                clean[k] = v
        self.blocks[(r, n)] = clean
        self._beads.pop((r, n), None)

    def beads(self, r, n):
        """The (r, n) block over one denominator, keyed by beta numbers:
        (den, {beta: den * coefficient}, the 3-abacus runner counts of its
        shapes)."""
        view = self._beads.get((r, n))
        if view is None:
            block = self.blocks[(r, n)]
            den = math.lcm(*(v.denominator for v in block.values()))
            ints = {
                hook_numbers(nu, n): v.numerator * (den // v.denominator)
                for nu, v in block.items()
            }
            view = self._beads[(r, n)] = (den, ints, {runner_counts(b) for b in ints})
        return view

    def ensure(self, r, n):
        """Compute and store the (r, n) block if missing; returns it."""
        if not self.has(r, n):
            self.ensure_upto(r, n)
        return self.blocks[(r, n)]

    def ensure_upto(self, r_top, n):
        if all(self.has(r, n) for r in range(r_top + 1)):
            return
        for r, p in bootstrap_all(r_top, n).items():
            if not self.has(r, n):
                self.put(r, n, p.terms)

    def p_rn(self, r, n):
        return SymPoly(n, SCHUR, dict(self.blocks[(r, n)]))

    # -- serialization --------------------------------------------------

    def dumps(self):
        lines = [FILE_HEADER]
        first = True
        for (r, n) in sorted(self.blocks, key=lambda rn: (rn[1], rn[0])):
            if not first:
                lines.append("")
            first = False
            block = self.blocks[(r, n)]
            head = "n=%d r=%d" % (n, r)
            lines.append(head + " terms=%d" % len(block) if self.counted else head)
            for nu in sorted(block, reverse=True):
                lines.append("%s %s" % (format_partition(nu), block[nu]))
        return "\n".join(lines) + "\n"

    def save(self, path):
        data = self.dumps()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(data)

    @classmethod
    def loads(cls, data):
        """Parse the file form.  A block header is exactly ``n=N r=R
        terms=T``; it must be followed by exactly T coefficient lines and
        the data must end in a newline, so a truncated file is rejected
        instead of loading as a smaller block.  Headers without a term
        count still load.  Any other header, a repeated (n, r) header, a
        partition repeated within a block or with more than n rows, a
        coefficient line before the first header and a zero denominator are
        rejected too."""
        lines = data.splitlines()
        if not lines or lines[0] != FILE_HEADER:
            raise ValueError("unrecognized table header")
        if not data.endswith("\n"):
            raise ValueError("truncated table: no final newline")
        table = cls()
        cur = want = None
        coeffs = {}

        def flush():
            if cur is None:
                return
            if want is not None and want != len(coeffs):
                raise ValueError(
                    "block (r=%d, n=%d) has %d of %d terms" % (cur + (len(coeffs), want))
                )
            table.put(cur[0], cur[1], coeffs)

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
                cur = (r, n)
                if cur in table.blocks:
                    raise ValueError("line %d repeats block (r=%d, n=%d)" % ((lineno,) + cur))
                want = count[0] if count else None
                table.counted = table.counted and bool(count)
                coeffs = {}
            else:
                if cur is None:
                    raise ValueError("line %d: coefficient before any block header" % lineno)
                ptok, vtok = line.split()
                nu = parse_partition(ptok)
                if nu in coeffs:
                    raise ValueError(
                        "line %d repeats partition %s in block (r=%d, n=%d)"
                        % ((lineno, format_partition(nu)) + cur)
                    )
                try:
                    coeffs[nu] = rat_from_str(vtok)
                except ZeroDivisionError:
                    raise ValueError("line %d: zero denominator in %r" % (lineno, line)) from None
        flush()
        return table

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="ascii") as fh:
            return cls.loads(fh.read())

    def __eq__(self, other):
        return isinstance(other, DTable) and self.blocks == other.blocks
