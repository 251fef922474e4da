"""Symmetric polynomials in n variables over exact rationals.

Three bases are supported, tagged by a single letter:

* ``m`` monomial symmetric polynomials, indexed by partitions with at
  most n rows;
* ``e`` products of elementary symmetric polynomials, indexed by
  partitions whose parts are at most n (any number of rows);
* ``s`` Schur polynomials, indexed like ``m``.

Inside the integer kernels a Schur coefficient has one key, its beads
beta = mu + delta, the strictly decreasing shifted rows (``hook_numbers``
and ``shape_of_beads`` convert): ``schur_integers`` returns them,
``monomial_integers`` and ``elementary_integers`` take them, and Kostka
columns, dual columns and ribbon moves are keyed by them.  Partitions key
the m and e sides, and key a Schur coefficient only in a SymPoly
(``change_basis`` and ``power_sum_times_schur`` convert at that edge).

Monomial and Schur bases are exchanged through the bialternant: the s_mu
coefficient of f is the coefficient of x^beta in a_delta * f (Macdonald,
*Symmetric Functions*, I.3), a signed sum over the permutations w with
beta - w(delta) >= 0, read in two flat stages: the bottom walk gives
positions n-1 .. 3 their entries of delta and depends only on the bottom
beads beta_3 .. beta_{n-1}, not on f; the top-three close is one loop
over the walk's leaves with six signed reads of f each.  Monomial to
Schur (``schur_integers``) walks each bottom once for all its shapes;
Schur to monomial (``monomial_integers``) is the unitriangular
elimination that reads each shape on the monomial part found so far.
The kernel keys the monomial coefficients by a multiset code, sum_a 1 <<
(bits * a) over the entries a of the padded partition, bits =
n.bit_length(): a field holds a multiplicity up to n, so a rearrangement
of the exponents has the same code and the walk adds one field per
position instead of sorting at every leaf.  Kostka columns are grown by
horizontal strips on beads; they serve the formula's ``tau``.  The
elementary basis goes through the dual columns K_{mu^T, lam}, grown by
vertical strips: e to s sums one column per term, and s to e
(``elementary_integers``) subtracts one column per emitted coefficient
from the residual.  Every change runs on integers, and the SymPoly base
changes wrap them over one common denominator.

Products go through the expansion into the integer
:class:`~wkintersect.laurent.LaurentPoly` (``to_exponent_poly``, every
exponent doubled) and the collection back into the monomial basis
(``from_exponent_poly``); no table or query path multiplies two SymPolys.

No column, Kostka or dual, is kept between calls: each question builds
the columns it reads and drops them, so a sweep over many indices holds
no more than one index needs.  The one memo between calls is outside
this module: the partition classes of
:func:`~wkintersect.partitions.partition_class` (an ``lru_cache`` with
one entry per (degree, row count) asked), filled once per key and then
only read.
"""

import math
from itertools import combinations, permutations
from operator import add

from .rational import RAT_ONE, RAT_ZERO, Rat
from .partitions import (
    enumerate_partitions,
    format_partition,
    hook_numbers,
    ptrim,
    transpose,
    z_factor,
)
from .laurent import LaurentPoly

MONOMIAL = "m"
ELEMENTARY = "e"
SCHUR = "s"
BASES = (MONOMIAL, ELEMENTARY, SCHUR)


# ---------------------------------------------------------------------------
# Kostka machinery
# ---------------------------------------------------------------------------

def _add_hstrip(col, k):
    """Every shape of a bead-keyed column (at least two beads) with a
    horizontal k-strip added, multiplicities summed."""
    out = {}
    get = out.get
    for beta, c in col.items():
        # the choices for beads n-1 .. 2 as (suffix, rest of k); a bead
        # stuck below its neighbour (equal rows) has one value
        tails = [((), k)]
        for i in range(len(beta) - 1, 1, -1):
            lo = beta[i]
            span = beta[i - 1] - 1 - lo
            if span <= 0:
                tails = [((lo,) + t, rem) for t, rem in tails]
                continue
            tails = [
                ((lo + a,) + t, rem - a)
                for t, rem in tails
                for a in range(min(span, rem) + 1)
            ]
        # beads 1 and 0 close each choice directly
        top, lo = beta[0], beta[1]
        span = top - 1 - lo
        for t, rem in tails:
            for a in range(min(span, rem) + 1):
                key = (top + rem - a, lo + a) + t
                out[key] = get(key, 0) + c
    return out


def kostka_column(content, nrows):
    """All Kostka numbers K_{mu, content} at once: {beta: K} keyed by the
    beta numbers beta_i = mu_i + nrows - 1 - i of the shapes mu with at most
    nrows rows (``shape_of_beads`` gives mu back).  Iterated Pieri growth,
    one horizontal strip per non-zero part k of the content: a strip
    interlaces the old beads, so new bead i >= 1 lies in
    [beta_i, beta_{i-1} - 1] and bead 0 takes what is left of k
    (Macdonald I.5).  K does not depend on the order of the parts; the
    smallest go first, which keeps the columns before the last strip
    small.  Each call grows a fresh column, which the caller owns."""
    if nrows == 1:
        return {(sum(content),): 1}   # one row takes any content one way
    col = {tuple(range(nrows - 1, -1, -1)): 1}
    for part in sorted(content):
        if part:
            col = _add_hstrip(col, part)
    return col


def _add_vstrip(col, k):
    """Every shape of a bead-keyed column with a vertical k-strip added,
    multiplicities summed: k beads move up one position each.  The beads
    are walked top down; a bead stays if the moves left fit the beads
    below it, or moves up one if the position above is free (bead 0
    always, bead i when bead i-1 has moved or stands two or more above).
    Needs k <= the number of beads."""
    out = {}
    get = out.get
    for beta, c in col.items():
        heads = [((), k)]
        below = len(beta)
        for b in beta:
            below -= 1
            up = b + 1
            nxt = []
            for head, rem in heads:
                if rem <= below:
                    nxt.append((head + (b,), rem))
                if rem and (not head or head[-1] > up):
                    nxt.append((head + (up,), rem - 1))
            heads = nxt
        for head, _ in heads:
            out[head] = get(head, 0) + c
    return out


def dual_kostka_column(content, nrows):
    """All dual Kostka numbers K_{mu^T, content} at once: {beta: K} keyed
    by the beta numbers of the shapes mu with at most nrows rows, like
    :func:`kostka_column`.  Iterated Pieri growth, one vertical strip per
    non-zero part of the content; a part above nrows leaves no shape.
    Each call grows a fresh column, which the caller owns."""
    if any(part > nrows for part in content):
        return {}
    col = {tuple(range(nrows - 1, -1, -1)): 1}
    for part in content:
        if part:
            col = _add_vstrip(col, part)
    return col


def _integer_terms(terms):
    """(den, [(key, int)]) with each coefficient equal to int / den."""
    den = math.lcm(*(v.denominator for v in terms.values()))
    return den, [(k, v.numerator * (den // v.denominator)) for k, v in terms.items()]


def _multiset_code(alpha, n):
    """sum_a 1 << (bits * a) over the entries a of alpha, bits =
    n.bit_length(): one field per value counts its multiplicity.  No
    multiplicity in an n-tuple (at most n < 2**bits) overflows its field,
    so two n-tuples share a code exactly when they are rearrangements of
    each other."""
    bits = n.bit_length()
    code = 0
    for a in alpha:
        code += 1 << (bits * a)
    return code


def _bottom_leaves(bottom, n, pw):
    """Stage one of an alternant read, the bottom walk: positions n-1 .. 3
    of beta, with beads ``bottom`` = beta[3:], take unused entries
    v <= beta_i of delta, smallest bead first.  One leaf (a, b, c, parity,
    code) per assignment: a < b < c the entries left for the top three
    positions, code the multiset code of the exponents beta_i - v, parity
    that of the inversions, counting the n-3-a, n-2-b and n-1-c used
    entries above a, b and c.  Independent of f and of beta[:3]."""
    if n < 3:
        return []
    level = [(0, 0, 0)]  # (used entries as bits, inversions, code)
    for b in reversed(bottom):
        level = [
            (used | 1 << v, inv + (used >> v).bit_count(), code + pw[b - v])
            for used, inv, code in level
            for v in range(min(b, n - 1) + 1)
            if not used >> v & 1
        ]
    leaves = []
    for used, inv, code in level:
        free = ((1 << n) - 1) ^ used
        a = (free & -free).bit_length() - 1
        rest = free & (free - 1)
        b = (rest & -rest).bit_length() - 1
        c = free.bit_length() - 1
        leaves.append((a, b, c, (inv + n - a - b - c) & 1, code))
    return leaves


def _alternant_coefficient(get, pw, beta, leaves):
    """Stage two, the top-three close: the coefficient of x^beta,
    beta = mu + delta, in a_delta * f, for f read by ``get`` on multiset
    codes and ``leaves`` the bottom walk of beta[3:].  Each of the six
    assignments of a leaf's a < b < c to positions (2, 1, 0) enters when
    its values fit under beta_2 and beta_1 (beta_0 >= n - 1 takes any),
    signed by the permutation and the leaf's parity."""
    b0 = beta[0]
    if len(beta) == 1:
        return get(pw[b0], 0)
    b1 = beta[1]
    if len(beta) == 2:
        c = get(pw[b1] + pw[b0 - 1], 0)
        return c - get(pw[b1 - 1] + pw[b0], 0) if b1 else c
    b2 = beta[2]
    total = 0
    for a, b, c, odd, code in leaves:
        if a > b2 or b > b1:
            continue
        head = code + pw[b2 - a]
        s = get(head + pw[b1 - b] + pw[b0 - c], 0)
        if c <= b1:
            s -= get(head + pw[b1 - c] + pw[b0 - b], 0)
        if b <= b2:
            head = code + pw[b2 - b]
            s -= get(head + pw[b1 - a] + pw[b0 - c], 0)
            if c <= b1:
                s += get(head + pw[b1 - c] + pw[b0 - a], 0)
            if c <= b2:
                head = code + pw[b2 - c]
                s += get(head + pw[b1 - a] + pw[b0 - b], 0)
                s -= get(head + pw[b1 - b] + pw[b0 - a], 0)
        total += -s if odd else s
    return total


def _powers(top, n):
    """[1 << (bits * a)] for every exponent a <= top: the reads of one base
    change meet exponents up to the largest bead of its shapes."""
    return [1 << (n.bit_length() * a) for a in range(top + 1)]


def _shapes_to_read(keys, n, width=None, monomial=False):
    """(mu, beads of mu) for every shape mu whose coefficient a change
    between the m and s bases, or from s to e, reads, degree by degree in
    reverse-lex order: at most the lex-leading key of its degree (m_lam
    occurs in s_nu, and s_lam in e_{nu^T}, only for lam <= nu in dominance,
    so every other coefficient vanishes) and, with ``width``, mu_1 <=
    width.  The keys are beads, or with ``monomial`` partitions padded to
    n parts; only the lead of each degree is moved into beads."""
    lead = {}
    for key in keys:
        d = sum(key)
        if d not in lead or key > lead[d]:
            lead[d] = key
    delta = tuple(range(n - 1, -1, -1))
    for top in lead.values():
        if monomial:
            top = tuple(map(add, top, delta))
        cap = top[0] - n + 1 if width is None else min(width, top[0] - n + 1)
        for mu in enumerate_partitions(sum(top) - sum(delta), n, max_part=cap):
            beta = tuple(map(add, mu + (0,) * (n - len(mu)), delta))
            if beta <= top:
                yield mu, beta


def schur_integers(padded, n, width=None):
    """{beta: [s_mu] f} != 0, beta the beads of mu, for an integer
    f = {partition padded to n parts: [m_lam] f}, read off the alternant;
    with ``width`` only the shapes with mu_1 <= width are read.  The reads
    are independent, so each bottom beta[3:] is walked once for all its
    shapes, and its leaves are dropped after them."""
    get = {_multiset_code(lam, n): c for lam, c in padded.items()}.get
    pw = _powers(max(map(sum, padded), default=0) + n - 1, n)
    groups = {}
    for _, beta in _shapes_to_read(padded, n, width, monomial=True):
        groups.setdefault(beta[3:], []).append(beta)
    out = {}
    for bottom, shapes in groups.items():
        leaves = _bottom_leaves(bottom, n, pw)
        for beta in shapes:
            c = _alternant_coefficient(get, pw, beta, leaves)
            if c:
                out[beta] = c
    return out


def monomial_integers(schur, n):
    """{lam: [m_lam] f} != 0, lam trimmed, for an integer f = {beta:
    [s_mu] f} keyed by the beads of mu; the mirror of :func:`schur_integers`:
    [s_lam] f = sum_{nu >= lam} S_{nu,lam} [m_nu] f with S_{lam,lam} = 1,
    so walking each degree in reverse-lex order gives [m_lam] f = [s_lam] f
    - [s_lam](monomial part found so far), one alternant read per shape and
    one walk per bottom, whose leaves do not depend on the part found."""
    out = {}
    found = {}
    pw = _powers(max(schur, default=(0,))[0], n)  # the largest bead
    walks = {}
    for lam, beta in _shapes_to_read(schur, n):
        if beta[3:] not in walks:
            walks[beta[3:]] = _bottom_leaves(beta[3:], n, pw)
        c = schur.get(beta, 0) - _alternant_coefficient(found.get, pw, beta, walks[beta[3:]])
        if c:
            found[_multiset_code(lam + (0,) * (n - len(lam)), n)] = c
            out[lam] = c
    return out


def elementary_integers(schur, n):
    """{lam: [e_lam] f} != 0, lam trimmed, for an integer f = {beta:
    [s_mu] f} keyed by the beads of mu; the mirror of
    :func:`monomial_integers` on dual columns: e_{rho^T} = sum_{mu <= rho}
    K_{mu^T, rho^T} s_mu with K_{rho^T, rho^T} = 1, so walking each degree
    in reverse-lex order gives [e_{rho^T}] f as the residual at rho, and one
    dual column per emitted coefficient is subtracted from the residual."""
    residual = dict(schur)
    get = residual.get
    out = {}
    for rho, beta in _shapes_to_read(schur, n):
        c = get(beta)
        if c:
            rho_t = transpose(rho)
            for b, k in dual_kostka_column(rho_t, n).items():
                residual[b] = get(b, 0) - c * k
            out[rho_t] = c
    if any(residual.values()):
        raise AssertionError("Schur-to-elementary elimination left a residual")
    return out


# ---------------------------------------------------------------------------
# SymPoly
# ---------------------------------------------------------------------------


class SymPoly:
    """Basis-tagged sparse linear combination of symmetric basis elements."""

    __slots__ = ("n", "basis", "terms")

    def __init__(self, n, basis, terms=None):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        self.basis = basis
        clean = {}
        for k, v in (terms or {}).items():
            k = ptrim(k)
            v = Rat(v)
            if not v:
                continue
            if basis == ELEMENTARY:
                if k and k[0] > n:
                    raise ValueError("elementary index %r exceeds %d variables" % (k, n))
            elif len(k) > n:
                raise ValueError("partition %r too long for %d variables" % (k, n))
            clean[k] = clean.get(k, RAT_ZERO) + v
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def _make(cls, n, basis, terms):
        """Wrap terms that are already normalised (trimmed keys that fit
        the basis, non-zero exact values) without validating them again."""
        poly = object.__new__(cls)
        poly.n = n
        poly.basis = basis
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n, basis=MONOMIAL):
        return cls(n, basis, {})

    @classmethod
    def one(cls, n, basis=MONOMIAL):
        return cls(n, basis, {(): RAT_ONE})

    @classmethod
    def basis_element(cls, basis, lam, n):
        return cls(n, basis, {ptrim(lam): RAT_ONE})

    # -- ring-ish operations -------------------------------------------

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        if self.basis != other.basis:
            raise ValueError("basis mismatch (%s vs %s)" % (self.basis, other.basis))
        terms = dict(self.terms)
        for k, v in other.terms.items():
            w = terms.get(k, RAT_ZERO) + v
            if w:
                terms[k] = w
            elif k in terms:
                del terms[k]
        return SymPoly._make(self.n, self.basis, terms)

    def __neg__(self):
        return SymPoly._make(self.n, self.basis, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Exact product, returned in the monomial basis."""
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        return SymPoly.from_exponent_poly(self.to_exponent_poly() * other.to_exponent_poly())

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.n == other.n
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "SymPoly(%d, %r, 0)" % (self.n, self.basis)
        return "SymPoly(%d, %r, {%s})" % (
            self.n,
            self.basis,
            ", ".join(
                "%s: %s" % (format_partition(k), v) for k, v in sorted(self.terms.items(), reverse=True)
            ),
        )

    # -- expansions ------------------------------------------------------

    def to_exponent_poly(self):
        """The expansion into a :class:`~wkintersect.laurent.LaurentPoly`,
        each exponent doubled, integers over one denominator."""
        if self.basis == SCHUR:
            return self.change_basis(MONOMIAL).to_exponent_poly()
        n = self.n
        den, items = _integer_terms(self.terms)
        if self.basis == MONOMIAL:
            out = {}
            for lam, c in items:
                doubled = tuple(2 * a for a in lam) + (0,) * (n - len(lam))
                out.update(dict.fromkeys(set(permutations(doubled)), c))
            return LaurentPoly(n, out, den)
        ek = {}
        total = LaurentPoly(n)
        for lam, c in items:
            acc = LaurentPoly.constant(n, c)
            for part in lam:
                if part not in ek:
                    subsets = combinations(range(n), part)
                    ek[part] = LaurentPoly(n, {tuple(2 * (i in s) for i in range(n)): 1 for s in subsets})
                acc = acc * ek[part]
            total = total + acc
        return LaurentPoly(n, total.terms, den)

    @classmethod
    def from_exponent_poly(cls, poly):
        """Collect a symmetric LaurentPoly back into the monomial basis,
        halving its exponents.  Raises ValueError on an odd or negative
        exponent and unless every orbit is present with one coefficient."""
        n = poly.n
        reps = {}
        seen = {}
        for k, v in poly.terms.items():
            if any(e % 2 or e < 0 for e in k):
                raise ValueError("not a polynomial in u: exponent %r" % (k,))
            lam = ptrim(sorted((e // 2 for e in k), reverse=True))
            seen[lam] = seen.get(lam, 0) + 1
            if reps.setdefault(lam, v) != v:
                raise ValueError("polynomial is not symmetric")
        if any(count * z_factor(lam, n) != math.factorial(n) for lam, count in seen.items()):
            raise ValueError("polynomial is not symmetric")
        return cls(n, MONOMIAL, {lam: Rat(v, poly.den) for lam, v in reps.items()})

    def specialize_last_to_zero(self):
        """Set the last variable to zero, landing in n-1 variables."""
        if self.n < 2:
            raise ValueError("need at least two variables to drop one")
        m = self.n - 1
        if self.basis == MONOMIAL:
            return SymPoly(m, MONOMIAL, {k: v for k, v in self.terms.items() if len(k) <= m})
        if self.basis == ELEMENTARY:
            return SymPoly(m, ELEMENTARY, {k: v for k, v in self.terms.items() if not k or k[0] <= m})
        return self.change_basis(MONOMIAL).specialize_last_to_zero()

    # -- base change ------------------------------------------------------

    def change_basis(self, target):
        """The same polynomial in the target basis.  Each change to or from
        the Schur basis runs on integers over one common denominator, one
        ``Rat`` per coefficient: m to s reads the alternant, s to m and s
        to e eliminate, e to s sums dual Kostka columns.  m and e meet
        through s."""
        if target not in BASES:
            raise ValueError("unknown basis %r" % (target,))
        if target == self.basis:
            return SymPoly._make(self.n, self.basis, dict(self.terms))
        if SCHUR not in (self.basis, target):
            return self.change_basis(SCHUR).change_basis(target)
        n = self.n
        den, items = _integer_terms(self.terms)
        if self.basis == SCHUR:
            kernel = monomial_integers if target == MONOMIAL else elementary_integers
            out = kernel({hook_numbers(mu, n): c for mu, c in items}, n)
        else:
            if self.basis == MONOMIAL:
                beads = schur_integers({lam + (0,) * (n - len(lam)): c for lam, c in items}, n)
            else:
                beads = {}
                for lam, c in items:
                    for beta, k in dual_kostka_column(lam, n).items():
                        beads[beta] = beads.get(beta, 0) + c * k
            out = {shape_of_beads(beta): v for beta, v in beads.items() if v}
        return SymPoly._make(n, target, {k: Rat(c, den) for k, c in out.items()})

    # -- textual form ------------------------------------------------------

    def text(self):
        """Canonical textual form: one term per line, reverse-lex order."""
        lines = []
        for k in sorted(self.terms, reverse=True):
            lines.append("%s[%s] %s" % (self.basis, format_partition(k), self.terms[k]))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Power-sum multiplication in the Schur basis (ribbon rule)
# ---------------------------------------------------------------------------


def power_sum_times_schur(poly):
    """Multiply a Schur-basis SymPoly by the power sum p_3."""
    if poly.basis != SCHUR:
        raise ValueError("ribbon multiplication expects the Schur basis")
    n = poly.n
    w = raise_ribbons({hook_numbers(nu, n): c for nu, c in poly.terms.items()})
    return SymPoly._make(n, SCHUR, {shape_of_beads(beta): c for beta, c in w.items()})


def shape_of_beads(beta):
    """The partition with the strictly decreasing shifted rows beta."""
    n = len(beta)
    return ptrim(b - (n - 1 - i) for i, b in enumerate(beta))


def runner_counts(beta):
    """Beads on each runner of the 3-abacus, which fix the 3-core."""
    counts = [0, 0, 0]
    for b in beta:
        counts[b % 3] += 1
    return tuple(counts)


def raise_ribbons(w, top=None):
    """p_3 times a Schur combination {beta: c} keyed by beta numbers (the
    strictly decreasing shifted rows mu_i + n - i): raise one bead by 3
    onto a free position, the sign counting the beads jumped over;
    collisions vanish.  With ``top`` a result whose largest bead would
    pass ``top`` is dropped.  The values may be ints or exact rationals."""
    out = {}
    for beta, c in w.items():
        if top is not None and beta[0] > top:
            continue
        for i, b in enumerate(beta):
            t = b + 3
            j = i
            while j and beta[j - 1] < t:
                j -= 1
            if j:
                if beta[j - 1] == t:
                    continue
            elif top is not None and t > top:
                continue
            key = beta[:j] + (t,) + beta[j:i] + beta[i + 1 :]
            out[key] = out.get(key, 0) + (-c if (i - j) & 1 else c)
    return {k: v for k, v in out.items() if v}
