"""Hecke congruence subgroups of GL2(F_q[t]) and their action on the tree.

H_D is the group of matrices over R = F_q[t] with determinant in F_q* whose
lower-left entry is divisible by the modulus N_D of an effective divisor
D = sum n_i P_i (P_i monic irreducible, away from the place at infinity).
D = 0 gives all of GL2(R) with determinant in F_q*.

The orbit and stabilizer routines use the finite criterion: every vertex
reduces to a unique standard-ray vertex v_n = B_0^{|-n|} by a word in the
moves tau_f and I, and the GL2(R) stabilizer of v_n is explicit (upper
triangular with a degree-n cap for n >= 1, all of GL2(F_q) for n = 0).
The moves act on the ball a + pi^r*O itself: tau_f subtracts f from the
center, and I maps it to 1/a + pi^(r-2m)*O with m = nu(a) < r (to
B_0^{|-r|} for a ball holding 0), on the exact center P/t^K, so the reduction
is Euclid's algorithm on (P, t^K) and never calls `act`.  Its result is
kept on the vertex, so each vertex object is reduced once.
Whether a candidate lies in H_D is the congruence x*u = alpha*va +
beta*vc (mod N_D) in the torus pair (alpha, beta) and b = x of degree
<= n, u = c_dst*c_src, whose reduced echelon form is a closed form
(`_Congruence`): with e = gcd(u, N_D) and M = N_D/e, x*u = 0 iff M | x, so
the pivots are the columns t^j*u below deg M, the kernel is t^j -
(t^j mod M) for deg M <= j <= n (`_kernel_basis`), and y lies in the span
iff e | y and x(y) = (y/e)(u/e)^-1 mod M, the particular solution, has
degree <= n.  One extended Euclid decides every torus pair: all, one line
alpha = mu*beta or none, with solutions alpha*na + beta*nc +
span(kernel); a stabilizer's scalar line has na = nc = 0.  The system reads
g_dst and g_src only through their first columns, and a stabilizer is the
system of the pair (col, col), with u = c^2 and va = -vc = -a*c: its part
that does not depend on n is one Euclid, which a build shares among the
vertices of one column, and its level part is a slice at n.  A
descriptor keeps its kernel as M and a top degree k <= n, the basis
t^j - (t^j mod M) for deg M <= j <= k being built only when read.
Elimination runs only on the homogeneous system of
level 0 (`solve_affine`); the q^(n+3) enumeration is an oracle
(`stabilizer_brute_force`, `orbit_equivalent_brute_force`) up to
ENUMERATION_CAP elements.
A span point is one vector add (`_span_points`); an edge group is the
same data with a translation label fixed (top degree n - 1) or its torus
pairs restricted, and a level-0 algebra cut by one linear row (`_cut`).  At
level 0 the stabilizer is the unit group of the F_q-algebra V of solutions:
its order comes from the type of V (`_level0_unit_group`), and its elements
with c != 0 are walked only on demand (`_level0_extras`).
A stabilizer element g^{-1} s g, and an orbit witness g_dst^{-1} s g_src,
is F_q-linear in the frame data of s: one combination per entry of
products of the entries of g_dst and g_src (`_conjugate`).  The way back
is `ray_frame`, which also decides whether a matrix lies in Stab(v_n).
A stabilizer is generated by at most two torus lifts, the F_p-basis of
its unipotent space and, at level 0, the extras that grow the orbit of
infinity on P^1(F_q) (`StabDescriptor.generator_frames`).
F_q[t] values stay packed coefficient lists from the reduction through
the solve to the conjugation: `Polynomial` and `Matrix2` objects are made
only for what a caller receives, the reduction's g, stabilizer elements
and witnesses; the reduction's word stays packed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import (MAX_DEGREE, AlgebraError, Polynomial, decimal_value,
                      format_polynomial, packed_add, packed_combination,
                      packed_divmod, packed_gcd, packed_mul, parse_polynomial)
from .btree import BallVertex, Matrix2, act


class HeckeError(ValueError):
    pass


class SizeError(HeckeError):
    pass


class HeckeInconsistency(HeckeError):
    """Computed stabilizer data contradict each other: an internal error,
    not bad input."""


# the most elements an enumeration lists: a materialized stabilizer or the
# ambient stabilizer the brute-force oracles search
ENUMERATION_CAP = 100000

# the most unknowns b_0..b_n a congruence solve takes: its kernel basis costs
# O(n^2) time and memory, so a vertex at level n >= SOLVE_UNKNOWNS_CAP is
# refused before its torus map is read
SOLVE_UNKNOWNS_CAP = 4096


# ---------------------------------------------------------------------------
# levels


class Level:
    """Effective divisor D = sum n_i P_i on the affine line, P_i monic
    irreducible and pairwise distinct; the empty divisor encodes D = 0."""

    __slots__ = ("field", "primes", "modulus", "_key")

    def __init__(self, field, primes=()):
        seen = set()
        prs = []
        for poly, mult in primes:
            if not isinstance(poly, Polynomial) or poly.field != field:
                raise HeckeError("prime %r not over the ambient field" % (poly,))
            if not poly.is_monic():
                raise HeckeError("level factor %s is not monic"
                                 % format_polynomial(poly))
            if not poly.is_irreducible():
                raise HeckeError("level factor %s is reducible"
                                 % format_polynomial(poly))
            if mult < 1:
                raise HeckeError("multiplicity must be >= 1")
            if poly.key() in seen:
                raise HeckeError("repeated level factor %s"
                                 % format_polynomial(poly))
            seen.add(poly.key())
            prs.append((poly, int(mult)))
        prs.sort(key=lambda pm: (pm[0].degree, pm[0].key()))
        self.field = field
        self.primes = tuple(prs)
        if self.degree > MAX_DEGREE:
            raise HeckeError("level of degree %d is above the degree cap %d"
                             % (self.degree, MAX_DEGREE))
        modulus = [1]
        for poly, mult in prs:
            for _ in range(mult):
                modulus = packed_mul(field, modulus, poly.packed_coeffs)
        self.modulus = Polynomial._of(field, modulus)
        self._key = tuple((p.key(), m) for p, m in prs)

    @property
    def r(self):
        return len(self.primes)

    @property
    def degree(self):
        return sum(m * p.degree for p, m in self.primes)

    def is_zero(self):
        return not self.primes

    def multiplicities(self):
        return tuple(m for _, m in self.primes)

    def __eq__(self, other):
        return (isinstance(other, Level) and self.field == other.field
                and self._key == other._key)

    def __hash__(self):
        return hash((self.field.q, self._key))

    def __str__(self):
        if not self.primes:
            return "0"
        parts = []
        for poly, mult in self.primes:
            base = format_polynomial(poly)
            parts.append(base if mult == 1 else "%s^%d" % (base, mult))
        return ";".join(parts)

    def __repr__(self):
        return "Level(%s)" % self


def parse_level(text, field):
    """Parse 'poly^mult' factors separated by ';', e.g. "t;t+1" or "t^3".

    A trailing '^<uint>' on a factor is a multiplicity; anything else is part
    of the polynomial (so "t^2+t+1" is a single degree-2 factor).
    """
    t = "".join(text.split())
    if t in ("", "0"):
        return Level(field, ())
    factors = []
    for raw in t.split(";"):
        if not raw:
            raise HeckeError("empty level factor in %r" % text)
        body, mult = raw, 1
        if "^" in raw:
            head, tail = raw.rsplit("^", 1)
            if tail.isdigit() and head:
                stripped = head
                while stripped.startswith("(") and stripped.endswith(")"):
                    stripped = stripped[1:-1]
                try:
                    poly = parse_polynomial(stripped, field)
                except AlgebraError:
                    poly = None
                if poly is not None:
                    factors.append((poly, decimal_value(
                        tail, "multiplicity", text,
                        t.index(raw) + len(head) + 1)))
                    continue
        poly = parse_polynomial(body, field)
        factors.append((poly, mult))
    return Level(field, factors)


def is_member(g, level):
    """Entries in R, determinant a nonzero constant, N_D divides c."""
    return (g.is_polynomial() and g.det().num.degree == 0
            and not g.c.num % level.modulus)


# ---------------------------------------------------------------------------
# Nagao reduction to the standard ray


@dataclass(frozen=True)
class ReductionResult:
    level_n: int
    word: tuple
    g: Matrix2


def reduce_vertex(v):
    """Reduce v to its standard-ray representative v_n = B_0^{|-n|}.

    Returns (n, word, g) with g the composed word, entries in R and
    determinant in F_q*, such that act(g, v) = v_n.  The word alternates
    center-clearing translations tau_f, given by the packed list of f, with
    the inversion I, given by None; each I strictly shrinks the radius
    exponent, so the loop terminates.

    The moves run on the ball x + pi^r O with x the exact center P/t^K of
    v: tau_f subtracts from x the polynomial part f of its truncated
    expansion (the quotient of the division, without the terms t^i with
    -i >= r), and I maps x to 1/x and r to r - 2 nu(x) when nu(x) < r, or
    the ball B_0^{|r|} to B_0^{|-r|}.  That is Euclid's algorithm on
    (P, t^K) stopped by the radius, so the cost does not depend on r.  g is
    composed by row operations over R; `act` is not called.

    The result is kept on v, so a vertex object is reduced once however
    often it is asked for.
    """
    red = v._reduction
    if red is None:
        red = v._reduction = _nagao_reduction(v)
    return red


def _nagao_reduction(v):
    """The `reduce_vertex` loop on packed coefficient lists; the
    `Polynomial` and `Matrix2` objects of g are made once, at the end."""
    field = v.field
    neg_one = [field.neg(1)]
    moves = []   # f for each tau_f, None for each I
    # the rows of g = word[-1] @ ... @ word[0], over F_q[t]
    a, b, c, d = [1], [], [], [1]
    num, k = v.center.fraction()
    den, r = [0] * k + [1], v.r
    while True:
        f, num = packed_divmod(field, num, den)
        if r <= 0:
            # the ball drops t^i for i <= -r; what is left of x lies in
            # pi^r O, so the center is cleared and the loop ends
            f = [0] * (1 - r) + f[1 - r:] if len(f) > 1 - r else []
        if f:
            moves.append(f)
            minus_f = packed_mul(field, f, neg_one)
            a = packed_add(field, a, packed_mul(field, minus_f, c))
            b = packed_add(field, b, packed_mul(field, minus_f, d))
        if r <= 0:
            break
        moves.append(None)
        a, b, c, d = c, d, a, b
        m = len(den) - len(num)
        if not num or m >= r:
            num, den, r = [], [1], -r
        else:
            num, den, r = den, num, r - 2 * m
    of = Polynomial._of
    return ReductionResult(-r, tuple(moves), Matrix2(
        of(field, a), of(field, b), of(field, c), of(field, d)))


# ---------------------------------------------------------------------------
# linear algebra over F_q


def _vector_ops(field):
    """The sum of two packed-int vectors and a packed int times one, as
    tuples: one operation mod p or one table lookup per entry."""
    if field.s == 1:
        p = field.p
        return (lambda u, v: tuple([(x + y) % p for x, y in zip(u, v)]),
                lambda c, v: tuple([c * x % p for x in v]))
    add, mul = field._add, field._mul
    return (lambda u, v: tuple([add[x][y] for x, y in zip(u, v)]),
            lambda c, v: tuple(map(mul[c].__getitem__, v)))


def _mod_vectors(field, x, modulus, count=1):
    """Packed coefficient vectors, of length deg N, of t^i * x mod N for
    i < count, x and the monic N packed coefficient lists: one division,
    then each the previous one shifted up, less its top coefficient
    times N."""
    vadd, vscale = _vector_ops(field)
    m = len(modulus) - 1
    low = tuple(map(field.neg, modulus[:m]))
    rem = tuple(packed_divmod(field, x, modulus)[1])
    out = [rem + (0,) * (m - len(rem))]
    while len(out) < count:
        top, vec = m and out[-1][-1], ((0,) + out[-1])[:m]
        out.append(vadd(vec, vscale(top, low)) if top else vec)
    return out[:count]


def _eliminate(rows, ncols, field):
    """Gauss-Jordan elimination, in place, of augmented rows of packed ints:
    the first `ncols` entries of a row are coefficients, the rest are
    right-hand sides.

    Pivots are chosen among the coefficient columns only, so the row
    operations do not depend on the right-hand sides: each side is reduced
    as if it had been eliminated alone, and a combination of sides reduces
    to the same combination of the reduced sides.  A side is consistent iff
    it vanishes on the rows from len(pivots) on, and its particular solution
    has the entry of row k at column pivots[k] and zeros elsewhere.

    Returns (pivots, kernel): the pivot column of each leading row and a
    basis of the kernel of the coefficient columns, as packed-int tuples.
    """
    nrows = len(rows)
    vadd, vscale = _vector_ops(field)
    neg = field.neg
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((ri for ri in range(rank, nrows) if rows[ri][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = prow = vscale(field.inv(rows[rank][col]), rows[rank])
        for ri in range(nrows):
            if ri != rank and rows[ri][col]:
                rows[ri] = vadd(rows[ri], vscale(neg(rows[ri][col]), prow))
        pivots.append(col)
    kernel = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for k, col in enumerate(pivots):
            vec[col] = neg(rows[k][fc])
        kernel.append(tuple(vec))
    return pivots, tuple(kernel)


def solve_affine(columns, rhs, field):
    """Solve sum_j x_j * columns[j] = rhs over F_q, on packed ints.

    Returns (particular, kernel_basis) or (None, kernel_basis) when
    inconsistent; vectors are packed-int tuples of length len(columns).
    With an empty equation list everything solves.
    """
    ncols = len(columns)
    rows = [[col[i] for col in columns] + [x] for i, x in enumerate(rhs)]
    pivots, kernel = _eliminate(rows, ncols, field)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None, kernel
    part = [0] * ncols
    for row, col in zip(rows, pivots):
        part[col] = row[ncols]
    return tuple(part), kernel


def _torus_restrict(field, mu, rows):
    """The pairs of the torus set mu with alpha*x + beta*y = 0 on each row
    (x, y), as a torus set: None for all of (F_q*)^2, mu for the line
    alpha = mu*beta, 0 (the line alpha = 0) for none."""
    add, mul = field.add, field.mul
    for x, y in rows:
        if mu is None and (x or y):
            mu = x and y and field.neg(mul(y, field.inv(x)))
        elif mu is not None and add(mul(mu, x), y):
            return 0
    return mu


def _kernel_basis(field, m, k, n):
    """t^j - (t^j mod M) for deg M <= j <= k, packed-int vectors of length
    n + 1: for k = n the kernel of the columns t^j*u mod N for
    M = N/gcd(u, N).  The low part -(t^j mod M) is t^(j - deg M) times that
    of M, mod M."""
    dm = len(m) - 1
    if dm > k:
        return ()
    return tuple(low + (0,) * i + (1,) + (0,) * (n - dm - i) for i, low in
                 enumerate(_mod_vectors(field, m[:dm], m, k + 1 - dm)))


def _torus_frame(field, torus, ai, bi):
    """Frame data of the particular element of the pair (alpha, beta)."""
    vadd, vscale = _vector_ops(field)
    return ai, vadd(vscale(ai, torus[1]), vscale(bi, torus[2])), 0, bi


def _cut(field, part, basis, row, value):
    """part + span(basis), packed-int vectors, cut by <row, v> = value:
    (point, basis), or None when empty.  The last basis vector off the
    hyperplane's direction is eliminated, so `_span_points` lists the cut
    in the order it lists the space's points on the hyperplane."""
    vadd, vscale = _vector_ops(field)
    add, mul, neg = field.add, field.mul, field.neg
    dots = [functools.reduce(add, map(mul, row, vec), 0)
            for vec in [part, *basis]]
    rest = add(value, neg(dots.pop(0)))
    j = max((i for i, x in enumerate(dots) if x), default=None)
    if j is None:
        return None if rest else (part, basis)
    inv, pivot = field.inv(dots[j]), basis[j]
    return (vadd(part, vscale(mul(rest, inv), pivot)),
            tuple(vadd(vec, vscale(neg(mul(x, inv)), pivot))
                  for i, (vec, x) in enumerate(zip(basis, dots)) if i != j))


def _span_points(basis, field, origin=None):
    """origin (zero by default) plus each F_q-combination of the basis
    vectors, as packed-int tuples, in `itertools.product` order of the
    coefficients: each point of the leading vectors' span plus each of a
    table of multiples of the last, so one vector add per point."""
    if not basis:
        yield () if origin is None else origin
        return
    vadd, vscale = _vector_ops(field)
    last = tuple(map(field.packed, basis[-1]))
    table = [vscale(c, last) for c in range(field.q)]
    for acc in _span_points(basis[:-1], field, origin or (0,) * len(last)):
        for vec in table:
            yield vadd(acc, vec)


# ---------------------------------------------------------------------------
# stabilizers


def _frame_matrix(field, frame):
    """The frame element s = [[a, b], [c, d]] of the frame data
    (a, b, c, d): packed ints, b as its packed coefficient vector."""
    a, bvec, c, d = frame
    return Matrix2(Polynomial.constant(field, a), Polynomial(field, bvec),
                   Polynomial.constant(field, c),
                   Polynomial.constant(field, d))


def ray_frame(s, n):
    """The frame data (a, b, c, d) of s, b padded to n + 1 coefficients,
    for s over R with determinant in F_q*; None when s lies outside
    Stab(v_n), which by Nagao's theorem asks a, c and d constant, c = 0
    when n >= 1, and deg b <= n.  The inverse of `_frame_matrix`."""
    a, b, c, d = (x.num.packed_coeffs for x in s.entries())
    if not s.is_polynomial() or len(a) > 1 or len(c) > (n == 0) \
            or len(d) > 1 or len(b) > n + 1:
        return None
    return (a[0] if a else 0, b + (0,) * (n + 1 - len(b)),
            c[0] if c else 0, d[0] if d else 0)


@functools.lru_cache(maxsize=32)
def _primitive_element(field):
    """The least packed int of multiplicative order q - 1: it generates
    F_q*."""
    def order(w):
        x, k = w, 1
        while x != 1:
            x, k = field.mul(x, w), k + 1
        return k

    return next(w for w in range(1, field.q) if order(w) == field.q - 1)


def moebius(field, m, x):
    """Image of the point x of P^1(F_q), a packed int or None for infinity,
    under the Moebius map of the F_q matrix m = (a, b, c, d) of packed ints:
    x goes to (a x + b) / (c x + d).  A frame element with frame data
    (a, b, c, d) moves the neighbor labels by (a, b[n], c, d), b[n] the
    t^n coefficient of b."""
    a, b, c, d = m
    add, mul = field.add, field.mul
    if x is None:
        return mul(a, field.inv(c)) if c else None
    den = add(mul(c, x), d)
    return mul(add(mul(a, x), b), field.inv(den)) if den else None


def moebius_orbit(field, maps, x):
    """The orbit of the point x under the group the Moebius maps `maps`
    generate: its closure under them, the group being finite."""
    orbit, frontier = {x}, [x]
    while frontier:
        y = frontier.pop()
        for m in maps:
            z = moebius(field, m, y)
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return orbit


class StabDescriptor:
    """Compact description of Stab_{H_D}(v).

    Elements are g^{-1} s g for the reduction g of v, each given by the
    frame data (a, b, c, d) of s = [[a, b], [c, d]]: packed ints, b as its
    packed coefficient vector.  For the triangular part,
    s = [[alpha, b], [0, beta]] with b in alpha*na + beta*nc + span(kb),
    polynomials of degree <= n, for the torus pairs (alpha, beta): all of
    (F_q*)^2 for mu None, else the line alpha = mu*beta (`torus` =
    (mu, na, nc, kb) of packed ints; mu None at q = 2, where the two are
    one set).  kb is given by the modulus M, a packed list, and its top
    degree k: it is t^j - (t^j mod M) for deg M <= j <= k (`_kernel_basis`),
    k = n for a vertex group and n - 1 for an edge group cut by a
    translation label (`quotient.frame_fixers`).  The basis is built on the
    first read of `torus`; the order, the unipotent dimension and the
    neighbor orbits read only its dimension max(0, k + 1 - deg M).  At
    level 0 the ambient stabilizer is all of GL2(F_q), and the solutions
    form an F_q-algebra V; when some of them have a nonzero lower-left
    entry, `kernel` holds a basis of V, as packed-int tuples (a, b, c, d),
    and is empty otherwise.

    With g = [[A, B], [C, D]] and delta = det g in F_q*, the entries of
    g^{-1} s g are F_q-linear in a, b, c, d, as (1,1) =
    delta^{-1} (a AD - d BC - c AB + b CD) and (1,2) =
    delta^{-1} ((a - d) BD - c BB + b DD) (`_conjugate`); the products of
    entries of g are made once per descriptor, on first use.

    Conjugation by g is a group isomorphism, so products and orders of
    elements are taken on their frame data (`frame_product`,
    `frame_order`), in the finite group Stab(v_n), without forming any
    element; `frame_of` reads the frame data back off an element.
    """

    __slots__ = ("base_vertex", "conjugator", "level_n", "level", "field",
                 "torus_map", "m", "top", "_kb", "_dim", "kernel",
                 "_triangular", "_order", "_products")

    def __init__(self, base_vertex, conjugator, level_n, level, torus,
                 kernel, top=None):
        self.base_vertex = base_vertex
        self.conjugator = conjugator
        self.level_n = level_n
        self.level = level
        self.field = base_vertex.field
        q, (mu, na, nc, self.m) = self.field.q, torus
        self.torus_map = (None if q == 2 else mu, na, nc)
        self.top = level_n if top is None else top
        self._kb = None
        self._dim = max(0, self.top + 2 - len(self.m))
        self.kernel = tuple(kernel)
        # the elements with c = 0: q^dim kb for each torus pair
        self._triangular = (q - 1) ** (2 if self.torus_map[0] is None else 1) \
            * q ** self._dim
        self._order = (_level0_unit_group(self.field, self.kernel)[0]
                       if self.kernel else self._triangular)
        self._products = None

    @property
    def torus(self):
        """(mu, na, nc, kb), kb built from M and k on the first read; the
        `torus_map` (mu, na, nc) reads no kb."""
        if self._kb is None:
            self._kb = _kernel_basis(self.field, self.m, self.top,
                                     self.level_n)
        return self.torus_map + (self._kb,)

    @property
    def order(self):
        return self._order

    def holds_translations(self):
        """Whether some vector of kb has a t^n coordinate, so that the
        group holds every translation of the labels of the neighbors
        (`quotient.frame_orbits`): only t^n - (t^n mod M) has one, the last
        vector when k = n."""
        return self.top == self.level_n and self._dim > 0

    def unipotent_dim(self):
        """log_q of the order of the largest normal unipotent subgroup, an
        invariant of the class of the vertex.

        Without a level-0 kernel the group in the frame is triangular and
        that subgroup is the unipotent space of the (1, 1) pair; with one
        it is read off the type of V (`_level0_unit_group`)."""
        if self.kernel:
            return _level0_unit_group(self.field, self.kernel)[1]
        return self._dim if self.torus_map[0] in (None, 1) else 0

    def has_distinct_torus_block(self):
        """Whether some torus pair has alpha != beta."""
        return self.torus_map[0] != 1 and self.field.q > 2

    def torus_pairs(self):
        """The torus pairs (alpha, beta), listed by alpha, then beta."""
        f, mu, units = self.field, self.torus_map[0], range(1, self.field.q)
        return tuple((ai, bi) for ai in units for bi in units
                     if mu is None or ai == f.mul(mu, bi))

    def element(self, frame):
        """g^{-1} s g for the frame data (a, b, c, d) of s.  The first call
        reads the entries of g, checks that det g = AD - BC is a constant
        and keeps AD and BC as the first two products."""
        f = self.field
        if self._products is None:
            g = tuple(x.packed_coeffs for x in self.conjugator.entries())
            ad, bc = packed_mul(f, g[0], g[3]), packed_mul(f, g[1], g[2])
            det = packed_add(f, ad, packed_mul(f, bc, [f.neg(1)]))
            if len(det) != 1:
                raise AlgebraError("%s is not a unit of F_q[t]"
                                   % format_polynomial(Polynomial._of(f, det)))
            self._products = g, f.inv(det[0]), {(0, 3): ad, (1, 2): bc}
        g, delta_inv, prods = self._products
        return _conjugate(f, g, frame, g, delta_inv, prods)

    def frame_of(self, h):
        """The frame data of s = g h g^{-1} (`ray_frame`): the inverse of
        `element`, and None unless h fixes the vertex."""
        g = self.conjugator
        return ray_frame(g @ h @ g.inverse(), self.level_n)

    def identity_frame(self):
        """Frame data of the identity."""
        return 1, (0,) * (self.level_n + 1), 0, 1

    def frame_product(self, x, y):
        """Frame data of s s' for the frame data x of s and y of s', so
        that element(x) @ element(y) == element(frame_product(x, y)).

        Every b has n + 1 coefficients, and c is nonzero only at level 0,
        where b is a constant, so the product is the one of GL2(F_q) with
        b read as its coefficient vector."""
        f = self.field
        add, mul = f.add, f.mul
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (add(mul(a1, a2), mul(b1[0], c2)),
                tuple(add(mul(a1, u), mul(w, d2)) for u, w in zip(b2, b1)),
                add(mul(c1, a2), mul(d1, c2)),
                add(mul(c1, b2[0]), mul(d1, d2)))

    def frame_order(self, frame):
        """Order of the element of the frame data `frame`, by products in
        the frame; the element lies in the finite group Stab(v_n)."""
        ident = self.identity_frame()
        acc, order = frame, 1
        while acc != ident:
            acc = self.frame_product(acc, frame)
            order += 1
        return order

    def _unipotent_basis(self):
        """An F_p-basis of the unipotent space all torus pairs share.

        Conjugation by the torus scales the space by the ratios
        alpha/beta, so its F_q-basis generates it only over the subfield
        they generate: F_q for all of (F_q*)^2, F_p for the scalar line,
        the one line a group has (`_torus_lifts`), where the basis times
        omega^i, 1 <= i < s, omega the field generator, completes it."""
        f, (mu, _, _, kb) = self.field, self.torus
        if mu is None or f.s == 1:
            return kb
        basis = list(kb)
        omega = w = f.p   # the packed int of the generator g
        for _ in range(1, f.s):
            basis.extend(tuple(f.mul(w, x) for x in vec) for vec in kb)
            w = f.mul(w, omega)
        return basis

    def _torus_lifts(self):
        """Frame data of lifts of generators of the torus pairs: the
        particular elements of (omega, 1) and (1, omega) when the pairs are
        all of (F_q*)^2, of (omega, omega) when they are the scalar line,
        omega the least generator of F_q*; none at q = 2.  A group holds the
        identity, so any other line alpha = mu*beta is an inconsistency."""
        f = self.field
        mu, w = self.torus_map[0], _primitive_element(f)
        if mu is None:
            pairs = ((w, 1), (1, w))
        elif mu == 1:
            pairs = ((w, w),)
        else:
            raise HeckeInconsistency(
                "the torus pairs alpha = %d*beta of a stabilizer are neither "
                "all of (F_q*)^2 nor the scalar line" % mu)
        return [_torus_frame(f, self.torus_map, ai, bi) for ai, bi in pairs
                if (ai, bi) != (1, 1)]

    def _extra_generators(self, frames):
        """The level-0 extras, in order, that grow the orbit of infinity
        under the group the frames and the extras kept so far generate.

        The frames generate the triangular part B_S of the group S, its
        elements that fix infinity, so an extra x lies in their group H
        iff x.inf = h.inf for some h in H, h^-1 x then lying in B_S.
        |H| = |H.inf| |B_S|, so the walk stops once the orbit has
        order / |B_S| points; no product is formed.  The order is a closed
        form (`_level0_unit_group`), which the walk so checks."""
        f = self.field
        maps = [(a, b[0], c, d) for a, b, c, d in frames]
        triangular = self._triangular
        orbit, kept = {None}, []
        for x in _level0_extras(f, self.kernel):
            if len(orbit) * triangular == self.order:
                break
            a, b, c, d = x
            if moebius(f, (a, b[0], c, d), None) not in orbit:
                kept.append(x)
                maps.append((a, b[0], c, d))
                orbit = moebius_orbit(f, maps, None)
        if len(orbit) * triangular != self.order:
            raise HeckeInconsistency(
                "the level-0 extras reach %d points from infinity, not the "
                "%d/%d of a group" % (len(orbit), self.order, triangular))
        return kept

    def generator_frames(self):
        """Frame data of a small generating set, in `generators` order,
        pairwise distinct and none the identity: at most two torus lifts
        (`_torus_lifts`), an F_p-basis of the unipotent space all torus
        pairs share, and the level-0 extras that the group these generate
        lacks (`_extra_generators`)."""
        frames = self._torus_lifts()
        frames += [(1, vec, 0, 1) for vec in self._unipotent_basis()]
        if self.kernel:
            frames += self._extra_generators(frames)
        return frames

    def generators(self):
        """The elements of `generator_frames`; they generate the whole
        group."""
        return [self.element(fr) for fr in self.generator_frames()]

    def frames(self):
        """Frame data of every element, in `materialize` order: the
        triangular elements pair by pair, then the level-0 extras."""
        for ai, bi in self.torus_pairs():
            part = _torus_frame(self.field, self.torus, ai, bi)[1]
            for vec in _span_points(self.torus[3], self.field, part):
                yield ai, vec, 0, bi
        yield from _level0_extras(self.field, self.kernel)

    def check_order(self, cap):
        if self.order > cap:
            raise SizeError("stabilizer order %d exceeds cap %d"
                            % (self.order, cap))

    def materialize(self, cap=ENUMERATION_CAP):
        """Full element list, the triangular elements before the level-0
        extras, as an oracle; raises SizeError beyond cap."""
        self.check_order(cap)
        return [self.element(fr) for fr in self.frames()]

    def __repr__(self):
        return ("StabDescriptor(level_n=%d, order=%d, mu=%s, kernel=%d)"
                % (self.level_n, self.order, self.torus_map[0],
                   len(self.kernel)))


def _level0_unit_group(field, kernel):
    """(|V*|, log_q of the order of its largest normal unipotent subgroup)
    for the F_q-subalgebra V of M2(F_q) with basis `kernel`, V holding 1
    and some x with c != 0.

    V is all of M2 (dimension 4), a Borel subalgebra (3) or F_q[x] (2),
    which is F_{q^2}, the dual numbers or F_q x F_q as the characteristic
    polynomial of x has none, one or two roots in F_q."""
    q = field.q
    if len(kernel) == 4:
        return (q * q - 1) * (q * q - q), 0
    if len(kernel) == 3:
        return (q - 1) ** 2 * q, 1
    add, mul, neg = field.add, field.mul, field.neg
    a, b, c, d = next(vec for vec in kernel if vec[2])
    trace, det = add(a, d), add(mul(a, d), neg(mul(b, c)))
    roots = sum(add(mul(z, add(z, neg(trace))), det) == 0 for z in range(q))
    return [(q * q - 1, 0), (q * (q - 1), 1), ((q - 1) ** 2, 0)][roots]


def _level0_extras(field, kernel):
    """Frame data of the units of the span of `kernel` with c != 0, in
    `_span_points` order; none for an empty kernel."""
    mul = field.mul
    for sa, sb, sc, sd in (_span_points(kernel, field) if kernel else ()):
        if sc and mul(sa, sd) != mul(sb, sc):
            yield sa, (sb,), sc, sd


def _residue(field, x, y, modulus):
    """x*y mod N_D, packed."""
    return packed_divmod(field, packed_mul(field, x, y), modulus)[1]


class _Congruence:
    """The system x*u = alpha*va + beta*vc (mod N_D), x of degree <= n, of
    the packed first columns (a_dst, c_dst) of g_dst and (a_src, c_src) of
    g_src: u = c_dst*c_src, va = -c_dst*a_src, vc = a_dst*c_src mod N_D
    (`orbit_witness`).  A stabilizer is the pair (col, col); given as one
    object, va = -vc and its parts are those of vc negated.  The
    constructor runs what n does not change: one extended Euclid (e, (u/e)^-1
    mod M and M), the particular parts x(y - y mod e) of va and vc, and the
    rows y mod e of L(y), folded into the torus set mu.  `torus(n)` is the
    level slice; `algebra()` solves the level-0 system on first use."""

    __slots__ = ("level", "a_pair", "u", "va", "vc", "m", "xa", "xc", "mu",
                 "_algebra")

    def __init__(self, level, dst, src):
        field, modulus = level.field, level.modulus.packed_coeffs
        (a_dst, c_dst), (a_src, c_src) = dst, src
        self.level, self.a_pair = level, (a_dst, a_src)
        self.u = _residue(field, c_dst, c_src, modulus)
        self.vc = _residue(field, a_dst, c_src, modulus)
        e, inv, self.m = packed_gcd(field, self.u, modulus, cofactor=True)

        def parts(y):
            # (y mod e, x(y - y mod e)) for x(y) = (y/e)(u/e)^-1 mod M
            quo, rest = packed_divmod(field, y, e)
            return rest, tuple(packed_divmod(
                field, packed_mul(field, quo, inv), self.m)[1])

        rest_c, self.xc = parts(self.vc)
        if dst is src:
            # the rows (-r, r) of L(va) = -L(vc) leave the scalar line
            self.va = list(map(field.neg, self.vc))
            self.xa = tuple(map(field.neg, self.xc))
            self.mu = 1 if rest_c else None
        else:
            self.va = _residue(field, packed_mul(field, c_dst, [field.neg(1)]),
                               a_src, modulus)
            rest_a, self.xa = parts(self.va)
            self.mu = _torus_restrict(field, None, itertools.zip_longest(
                rest_a, rest_c, fillvalue=0))
        self._algebra = None

    def torus(self, n):
        """The torus map (mu, na, nc, M) at level n, or None when no pair is
        consistent.  y is in the span iff L(y) = (y mod e, the coefficients
        of x(y - y mod e) above t^n) vanishes (module docstring), so the
        rows above t^n cut mu.  All pairs have na = x(va), nc = x(vc); a
        line alpha = mu*beta has na = x(va + vc/mu), nc = 0."""
        if n + 1 > SOLVE_UNKNOWNS_CAP:
            raise SizeError("the congruence solve at level %d has %d "
                            "unknowns, above the cap %d"
                            % (n, n + 1, SOLVE_UNKNOWNS_CAP))
        field, xa, xc, mu = self.level.field, self.xa, self.xc, self.mu
        if max(len(xa), len(xc)) > n + 1:
            mu = _torus_restrict(field, mu, itertools.zip_longest(
                xa[n + 1:], xc[n + 1:], fillvalue=0))
        if mu == 0:
            return None
        if mu is not None:
            xa = tuple(packed_add(field, xa, xc if mu == 1 else
                                  packed_mul(field, xc, [field.inv(mu)])))
            xc = ()
        zero = (0,) * (n + 1)
        return (mu, xa[:n + 1] + zero[len(xa):], xc[:n + 1] + zero[len(xc):],
                self.m)

    def algebra(self):
        """A basis of the level-0 solutions (a, b, c, d) of
        a*va - b*u + c*a_dst*a_src + d*vc = 0 (mod N_D), kept if some c != 0
        in it, else (): the F_q-algebra V of a stabilizer, or the space whose
        units with c != 0 are the level-0 witnesses.  Solved on first use."""
        if self._algebra is None:
            field, modulus = self.level.field, self.level.modulus.packed_coeffs
            size = len(modulus) - 1
            cols4 = [tuple(col) + (0,) * (size - len(col)) for col in (
                self.va, packed_mul(field, self.u, [field.neg(1)]),
                _residue(field, *self.a_pair, modulus), self.vc)]
            _, kernel = solve_affine(cols4, (0,) * size, field)
            self._algebra = kernel if any(vec[2] for vec in kernel) else ()
        return self._algebra

    def stabilizer(self, v, red):
        """The descriptor of Stab(v), for the vertex v of reduction `red`
        whose g has the column of this (col, col) system."""
        n = red.level_n
        return StabDescriptor(v, red.g, n, self.level, self.torus(n),
                              self.algebra() if n == 0 else ())


def stabilizer(v, level):
    """Descriptor of Stab_{H_D}(v), computed by the linear solver."""
    red = reduce_vertex(v)
    col = red.g.a.packed_coeffs, red.g.c.packed_coeffs
    return _Congruence(level, col, col).stabilizer(v, red)


def orbit_witness(level, red_src, red_dst):
    """Some h in H_D with act(h, src) = dst, or None, given both
    reductions: g_dst^-1 s g_src for the first s the solve finds
    (`_conjugate`).  Levels must already agree.

    The condition is N_D | (g_dst^{-1} s g_src)[2,1].  With W = adj(g_dst)
    and (a, c) the first column of g_src, the entry of W s g_src is
    alpha*(W21*a) + beta*(W22*c) + b*(W21*c) for triangular s, plus the
    lower-row terms at level 0.  W = delta g_dst^{-1} with delta = det g_dst
    a unit, so N_D divides the entry of W s g_src iff it divides that of
    g_dst^{-1} s g_src, and W21 = -c_dst and W22 = a_dst give the system
    of `_Congruence`.
    """
    field, n = level.field, red_src.level_n
    dst = tuple(x.packed_coeffs for x in red_dst.g.entries())
    src = dst if red_src is red_dst else tuple(
        x.packed_coeffs for x in red_src.g.entries())
    col = dst[::2]   # the first column (a, c)
    system = _Congruence(level, col, col if src is dst else src[::2])
    torus = system.torus(n)
    if torus:
        # the first pair: (1, 1), or (1, 1/mu) on the line alpha = mu*beta
        frame = _torus_frame(field, torus, 1, field.inv(torus[0] or 1))
    else:
        # at level 0 the ambient stabilizer is GL2(F_q)
        frame = next(_level0_extras(field, system.algebra()), None) \
            if n == 0 else None
        if frame is None:
            return None
    # det g_dst is a constant, so A(0) D(0) - B(0) C(0)
    A0, B0, C0, D0 = (x[0] if x else 0 for x in dst)
    mul = field.mul
    delta_inv = field.inv(field.add(mul(A0, D0), field.neg(mul(B0, C0))))
    return _conjugate(field, dst, frame, src, delta_inv, {})


def _conjugation_terms(same):
    """For each frame slot s_kl, in the order a, b, c, d, the terms it adds
    to g_dst^-1 s g_src: (entry 2i + j, (dst index, src index), negated),
    as adj(g_dst)[i][k] is g_dst[1-k][1-i], negated when i != k.  With
    `same` (g_dst = g_src) each index pair is ordered."""
    return [[(2 * i + j, tuple(sorted(key)) if same else key, i != k)
             for i in (0, 1) for j in (0, 1)
             for key in [(3 - 2 * k - i, 2 * l + j)]]
            for k, l in ((0, 0), (0, 1), (1, 0), (1, 1))]


_CONJUGATION_TERMS = (_conjugation_terms(False), _conjugation_terms(True))


def _conjugate(field, dst, frame, src, delta_inv, prods):
    """g_dst^-1 s g_src, for the frame data (a, b, c, d) of s, the packed
    entries (A, B, C, D) of g_dst and of g_src, and delta_inv = 1/det g_dst.

    g_dst^-1 = delta^-1 adj(g_dst), so entry (i, j) is the sum over the
    nonzero slots s_kl of delta^-1 s_kl adj(g_dst)[i][k] g_src[l][j]
    (`_CONJUGATION_TERMS`): one combination of entry products, which
    `prods` keeps by index pair, b the polynomial delta^-1 b times its
    product.  With g_dst = g_src (dst is src) the products are symmetric,
    and a frame with a = d and c = 0 is a*1 + b*E12, whose a*1 conjugates
    to itself and needs no AD or BC product."""
    mul, neg = field.mul, field.neg
    a, bvec, c, d = frame
    same = dst is src
    b = list(bvec)
    while b and not b[-1]:
        b.pop()
    coefs = [mul(a, delta_inv), packed_mul(field, b, [delta_inv]),
             mul(c, delta_inv), mul(d, delta_inv)]
    entries = ([], [], [], [])
    if same and a == d and not c:
        entries[0].append((a, (1,)))
        entries[3].append((a, (1,)))
        coefs[0] = coefs[3] = 0
    for slot, coef in enumerate(coefs):
        if not coef:
            continue
        for e, key, negated in _CONJUGATION_TERMS[same][slot]:
            prod = prods.get(key)
            if prod is None:
                prod = prods[key] = packed_mul(field, dst[key[0]],
                                               src[key[1]])
            x = coef
            if slot == 1:
                x, prod = 1, packed_mul(field, coef, prod)
            entries[e].append((neg(x) if negated else x, prod))
    return Matrix2(*(Polynomial._of(field, packed_combination(field, terms))
                     for terms in entries))


def orbit_equivalent(v, w, level):
    """Some h in H_D with act(h, v) = w, or None."""
    red_v = reduce_vertex(v)
    red_w = reduce_vertex(w)
    if red_v.level_n != red_w.level_n:
        return None
    return orbit_witness(level, red_v, red_w)


# ---------------------------------------------------------------------------
# brute-force oracles (correctness checks for the solver)


def _ray_stab_tuples(field, n):
    """Entries (a, b, c, d) as polynomials for the GL2(R) stabilizer of
    v_n = B_0^{|-n|} with determinant in F_q*: all of GL2(F_q) for n = 0,
    upper triangular [[alpha, b], [0, beta]] with deg b <= n for n >= 1.
    Deterministic order.  Raises SizeError, before the first tuple, when
    the group has more than ENUMERATION_CAP elements."""
    q = field.q
    order = (q * q - 1) * (q * q - q) if n == 0 else (q - 1) ** 2 * q ** (n + 1)
    if order > ENUMERATION_CAP:
        raise SizeError("brute force would enumerate %d elements of "
                        "Stab(v_%d), above the cap %d"
                        % (order, n, ENUMERATION_CAP))
    const = [Polynomial.constant(field, i) for i in range(q)]
    if n == 0:
        for ai, bi, ci, di in itertools.product(range(q), repeat=4):
            if field.mul(ai, di) != field.mul(bi, ci):
                yield const[ai], const[bi], const[ci], const[di]
        return
    zero = Polynomial.zero(field)
    for ai, bi in itertools.product(range(1, q), repeat=2):
        for digits in itertools.product(range(q), repeat=n + 1):
            yield const[ai], Polynomial(field, digits[::-1]), zero, const[bi]


def _congruent_ray_elements(level, red_src, red_dst):
    """The s of `_ray_stab_tuples` with g_dst^{-1} s g_src in H_D; the
    lower-left entry of the product is linear in the entries of s, so the
    congruence is tested before any matrix is assembled."""
    w = red_dst.g.inverse()
    ga, gc = red_src.g.a, red_src.g.c
    pa, pb, pc, pd = w.c * ga, w.c * gc, w.d * ga, w.d * gc
    modulus = level.modulus
    for sa, sb, sc, sd in _ray_stab_tuples(level.field, red_src.level_n):
        if modulus.degree <= 0 or not (pa * sa + pb * sb + pc * sc
                                       + pd * sd) % modulus:
            yield Matrix2(sa, sb, sc, sd)


def stabilizer_brute_force(v, level, verify_action=False):
    """Enumerate Stab_{H_D}(v) through the ambient ray stabilizer.

    With `verify_action`, `act` checks once that the reduction g maps v to
    v_n, and `ray_frame` that every s found fixes v_n; together they show
    that each element g^-1 s g fixes v, without moving v again."""
    red = reduce_vertex(v)
    n = red.level_n
    if verify_action and act(red.g, v) != BallVertex.standard(v.field, n):
        raise HeckeError("the reduction of %s does not map it to v_%d; "
                         "reduction is inconsistent" % (v.to_text(), n))
    w = red.g.inverse()
    out = []
    for s in _congruent_ray_elements(level, red, red):
        if verify_action and ray_frame(s, n) is None:
            raise HeckeError("ambient stabilizer produced a non-fixing "
                             "element; reduction is inconsistent")
        out.append(w @ s @ red.g)
    return out


def orbit_equivalent_brute_force(v, w, level):
    """Search the ambient stabilizer directly for a witness."""
    red_v = reduce_vertex(v)
    red_w = reduce_vertex(w)
    if red_v.level_n != red_w.level_n:
        return None
    s = next(_congruent_ray_elements(level, red_v, red_w), None)
    return None if s is None else red_w.g.inverse() @ s @ red_v.g


__all__ = [
    "HeckeError", "SizeError", "HeckeInconsistency", "Level", "parse_level",
    "is_member", "ReductionResult", "reduce_vertex", "ray_frame",
    "StabDescriptor", "stabilizer", "orbit_witness", "orbit_equivalent",
    "solve_affine", "stabilizer_brute_force", "orbit_equivalent_brute_force",
    "moebius", "moebius_orbit",
]
