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
is Euclid's algorithm on (P, t^K) and never calls `act`.  Its result,
the vertex's one frame, holds g as packed rows and the residue matrix k
that the moves induce on L_v/pi L_v, and is kept on the vertex, so each
vertex object is reduced once.
A witness g_dst^-1 s g_src lies in H_D iff s moves the P^1(R/N_D) point
of the first column of g_src to that of g_dst, so a vertex group is read
off its point and itself, and a witness off two points: their torus map
and, at level 0, their algebra V (`points`, which states the rule).  A
descriptor keeps its kernel as M1 and a top degree k <= n, the basis
being built only when read (`_kernel_basis`); the q^(n+3) enumeration is
an oracle (`stabilizer_brute_force`, `orbit_equivalent_brute_force`) up
to ENUMERATION_CAP elements.
A span point is one vector add (`_span_points`); an edge group is the
same data with a translation label fixed (top degree n - 1) or its torus
pairs restricted, and a level-0 algebra cut by one linear row (`_cut`).  At
level 0 the stabilizer is the unit group of the F_q-algebra V of solutions:
its order comes from the type of V (`_level0_unit_group`), and its elements
with c != 0 are walked only on demand (`_level0_extras`).
A stabilizer element g^{-1} s g, and an orbit witness g_dst^{-1} s g_src,
is two products of packed rows through the inverse of g_dst that its
reduction keeps (`_conjugate`, `ReductionResult.inverse`).  The way back
is g h g^-1 through the same inverse, read by `ray_frame`, which also
decides whether a matrix lies in Stab(v_n).
A stabilizer is generated by at most two torus lifts, the F_p-basis of
its unipotent space and, at level 0, the extras that grow the orbit of
infinity on P^1(F_q) (`StabDescriptor.generator_frames`).
F_q[t] values stay packed lists from the reduction to the frame reader:
an element is its packed rows (A, B, C, D) (`btree._rows_product`), and a
`Matrix2` is made only for what a caller receives (`Matrix2.of_rows`).
"""

from __future__ import annotations

import functools
import itertools

from .algebra import (MAX_DEGREE, AlgebraError, Polynomial,
                      _strip_outer_parens, decimal_value, format_polynomial,
                      packed_add, packed_combination, packed_divmod,
                      packed_mul, parse_polynomial)
from .btree import (BallVertex, Matrix2, _rows_inverse, _rows_product,
                    act)
# solve_affine is bound here too, so that perfbench traces the level-0
# solves of `points` as `hecke.solve_affine`
from .points import Point, solve_affine


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

# the most coefficients b_0..b_n of a level-n torus map: the kernel basis
# that the printed generators read costs O(n^2) time and memory, so a vertex
# at level n >= SOLVE_UNKNOWNS_CAP is refused before its torus map is read
SOLVE_UNKNOWNS_CAP = 4096


# ---------------------------------------------------------------------------
# levels


class Level:
    """Effective divisor D = sum n_i P_i on the affine line, P_i monic
    irreducible and pairwise distinct; the empty divisor encodes D = 0.
    It keeps the point of each first column it reads (`point`), a cache
    outside its value."""

    __slots__ = ("field", "primes", "modulus", "_key", "points")

    def __init__(self, field, primes):
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
        # P^(q^j) = P(t^(q^j)) over F_q, so each base-q digit d of a
        # multiplicity multiplies d times by one spread of P: one shifted
        # copy of the product per term of P
        modulus = [1]
        for poly, mult in prs:
            terms = [(i, c) for i, c in enumerate(poly.packed_coeffs) if c]
            step = 1
            while mult:
                mult, digit = divmod(mult, field.q)
                for _ in range(digit):
                    modulus = packed_combination(field, [
                        (c, [0] * (i * step) + modulus) for i, c in terms])
                step *= field.q
        self.modulus = Polynomial._of(field, modulus)
        self._key = tuple((p.key(), m) for p, m in prs)
        self.points = {}

    def point(self, col):
        """The `points.Point` of a packed first column (a, c), made once."""
        point = self.points.get(col)
        if point is None:
            point = self.points[col] = Point(self, col)
        return point

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
            parts.append(base if mult == 1 else "%s^%d" % (
                base if base == "t" else "(%s)" % base, mult))
        return ";".join(parts)

    def __repr__(self):
        return "Level(%s)" % self


def parse_level(text, field):
    """Parse 'poly^mult' factors separated by ';', e.g. "t;t+1" or "t^3".

    A trailing '^<uint>' on a factor is a multiplicity; anything else is part
    of the polynomial (so "t^2+t+1" is a single degree-2 factor); a head in
    parentheses keeps its own parse error."""
    t = "".join(text.split())
    if t in ("", "0"):
        return Level(field, ())
    factors = []
    for raw in t.split(";"):
        if not raw:
            raise HeckeError("empty level factor in %r" % text)
        head, _, tail = raw.rpartition("^")
        inner = _strip_outer_parens(head)
        if tail.isdigit() and head:
            try:
                poly = parse_polynomial(inner, field)
            except AlgebraError:
                if inner != head:
                    raise
            else:
                factors.append((poly, decimal_value(
                    tail, "multiplicity", text,
                    t.index(raw) + len(head) + 1)))
                continue
        factors.append((parse_polynomial(raw, field), 1))
    return Level(field, factors)


def is_member(g, level):
    """Entries in R, determinant a nonzero constant, N_D divides c."""
    return (g.is_polynomial() and g.det().num.degree == 0
            and not g.c.num % level.modulus)


# ---------------------------------------------------------------------------
# Nagao reduction to the standard ray


class ReductionResult:
    """Nagao's reduction of a vertex v, the one frame v is read in: the
    level n of v_n, the word, the packed rows (A, B, C, D) of g and its
    residue matrix k (`reduce_vertex`), packed ints (k11, k12, k21, k22);
    `g` is the `Matrix2` of the rows and `inverse` the packed rows of
    g^-1, each made on its first read.  Two reductions are equal when
    their five parts are."""

    def __init__(self, level_n, word, rows, link, field):
        self.level_n, self.word, self.rows = level_n, word, rows
        self.link, self.field = link, field

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.level_n, self.word, self.rows, self.link,
                self.field) == (other.level_n, other.word, other.rows,
                                other.link, other.field)

    @functools.cached_property
    def g(self):
        return Matrix2.of_rows(self.field, self.rows)

    @functools.cached_property
    def inverse(self):
        return _rows_inverse(self.field, self.rows)


def reduce_vertex(v):
    """Reduce v to its standard-ray representative v_n = B_0^{|-n|}.

    Returns the `ReductionResult` of g, the composed word, entries in R and
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

    k, up to F_q*, maps the line (x : y) of L_v / pi L_v, the neighbor of v
    that way, to the line of its image under g at v_n.  Each move carries
    the lattice basis (x, 1), (pi^r, 0) of its ball to a multiple of the
    next ball's basis mod pi, so k is a product, on the left, of one F_q
    matrix per move: 1 for tau_f at r > 0, where the exact center moves
    with the basis; diag(u, -1/u) for I off 0, u the pi^m coefficient of x,
    m = nu(x); [[x_r, 1], [1, 0]] for I on a ball holding 0, x_r the pi^r
    coefficient of x; and [[1, 0], [delta, 1]] for the clearing tau_f at
    r <= 0, delta the t^-r coefficient of the untruncated quotient.

    The result is kept on v, so a vertex object is reduced once however
    often it is asked for.
    """
    red = v._reduction
    if red is None:
        red = v._reduction = _nagao_reduction(v)
    return red


def _nagao_reduction(v):
    """The `reduce_vertex` loop on packed coefficient lists."""
    field = v.field
    add, mul = field.add, field.mul
    neg_one = [field.neg(1)]
    moves = []   # f for each tau_f, None for each I
    # the rows of g = word[-1] @ ... @ word[0], over F_q[t]
    a, b, c, d = [1], [], [], [1]
    k11, k12, k21, k22 = 1, 0, 0, 1
    num, k = v.center.fraction()
    den, r = [0] * k + [1], v.r
    while True:
        f, num = packed_divmod(field, num, den)
        if r <= 0:
            # the ball drops t^i for i <= -r; what is left of x lies in
            # pi^r O, so the center is cleared and the loop ends
            delta = f[-r] if len(f) > -r else 0
            k21, k22 = add(k21, mul(delta, k11)), add(k22, mul(delta, k12))
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
        u = mul(num[-1], field.inv(den[-1])) if num else 0
        if not num or m >= r:
            x_r = u if m == r else 0
            k11, k12, k21, k22 = (add(mul(x_r, k11), k21),
                                  add(mul(x_r, k12), k22), k11, k12)
            num, den, r = [], [1], -r
        else:
            w = field.neg(field.inv(u))
            k11, k12, k21, k22 = mul(u, k11), mul(u, k12), mul(w, k21), \
                mul(w, k22)
            num, den, r = den, num, r - 2 * m
    return ReductionResult(-r, tuple(moves), tuple(map(tuple, (a, b, c, d))),
                           (k11, k12, k21, k22), field)


# ---------------------------------------------------------------------------
# kernels and spans over F_q


def _mod_vectors(field, x, modulus, count):
    """Packed coefficient vectors, of length deg N, of t^i * x mod N for
    i < count, x and the monic N packed coefficient lists: one division,
    then each the previous one shifted up, less its top coefficient
    times N."""
    m = len(modulus) - 1
    low = tuple(map(field.neg, modulus[:m]))
    rem = tuple(packed_divmod(field, x, modulus)[1])
    out = [rem + (0,) * (m - len(rem))]
    while len(out) < count:
        top, vec = m and out[-1][-1], ((0,) + out[-1])[:m]
        out.append(field.vadd(vec, field.vscale(top, low)) if top else vec)
    return out[:count]


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
    n + 1: for k = n and M = M1 of a point (`points`) the b of degree
    <= n with b*e = 0 mod N_D/e.  The low part -(t^j mod M) is
    t^(j - deg M) times that of M, mod M."""
    dm = len(m) - 1
    if dm > k:
        return ()
    return tuple(low + (0,) * i + (1,) + (0,) * (n - dm - i) for i, low in
                 enumerate(_mod_vectors(field, m[:dm], m, k + 1 - dm)))


def _torus_frame(field, torus, ai, bi):
    """Frame data of the particular element of the pair (alpha, beta)."""
    vscale = field.vscale
    return ai, field.vadd(vscale(ai, torus[1]), vscale(bi, torus[2])), 0, bi


def _cut(field, basis, row):
    """A basis of span(basis), packed-int vectors, cut by <row, v> = 0.
    The last basis vector off the hyperplane is eliminated, so
    `_span_points` lists the cut in the order it lists the span's points
    on the hyperplane."""
    add, mul, neg = field.add, field.mul, field.neg
    dots = [functools.reduce(add, map(mul, row, vec), 0) for vec in basis]
    j = max((i for i, x in enumerate(dots) if x), default=None)
    if j is None:
        return basis
    inv, pivot = field.inv(dots[j]), basis[j]
    return tuple(field.vadd(vec, field.vscale(neg(mul(x, inv)), pivot))
                 for i, (vec, x) in enumerate(zip(basis, dots)) if i != j)


def _span_points(basis, field, origin=None):
    """origin (zero by default) plus each F_q-combination of the basis
    vectors, as packed-int tuples, in `itertools.product` order of the
    coefficients: each point of the leading vectors' span plus each of a
    table of multiples of the last, so one vector add per point."""
    if not basis:
        yield () if origin is None else origin
        return
    vadd, last = field.vadd, tuple(map(field.packed, basis[-1]))
    table = [field.vscale(c, last) for c in range(field.q)]
    for acc in _span_points(basis[:-1], field, origin or (0,) * len(last)):
        for vec in table:
            yield vadd(acc, vec)


# ---------------------------------------------------------------------------
# stabilizers


def ray_frame(s, n):
    """The frame data (a, b, c, d) of the packed rows s of a matrix over R
    with determinant in F_q*, b padded to n + 1 coefficients; None off
    Stab(v_n), which by Nagao's theorem asks a, c, d constant, c = 0 when
    n >= 1, and deg b <= n: the inverse of forming s from them."""
    a, b, c, d = s
    if len(a) > 1 or len(c) > (n == 0) or len(d) > 1 or len(b) > n + 1:
        return None
    return (a[0] if a else 0, tuple(b) + (0,) * (n + 1 - len(b)),
            c[0] if c else 0, d[0] if d else 0)


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
    """Compact description of Stab_{H_D}(v), in the frame of the
    `ReductionResult` of v.

    Elements are g^{-1} s g for the reduction g of v, each given by the
    frame data (a, b, c, d) of s = [[a, b], [c, d]]: packed ints, b as its
    packed coefficient vector.  For the triangular part,
    s = [[alpha, b], [0, beta]] with b in alpha*na + beta*nc + span(kb),
    polynomials of degree <= n, for the torus pairs (alpha, beta): all of
    (F_q*)^2 for mu None, else the line alpha = mu*beta (`torus` =
    (mu, na, nc, kb) of packed ints; mu None at q = 2, where the two are
    one set).  A vertex group has na = x and nc = -x for the x of its
    point (`points.Point.torus`), so na + nc = 0 on the scalar line.  kb is
    given by the modulus M, the point's M1, a packed list, and its top
    degree k: it is t^j - (t^j mod M) for deg M <= j <= k (`_kernel_basis`),
    k = n for a vertex group and n - 1 for an edge group cut by a
    translation label (`edge_group`).  The basis is built on the first
    read of `torus`; the order, the unipotent dimension and the fixed
    labels read only its dimension max(0, k + 1 - deg M).  At
    level 0 the ambient stabilizer is all of GL2(F_q), and the solutions
    form an F_q-algebra V; when some of them have a nonzero lower-left
    entry, `kernel` holds a basis of V, as packed-int tuples (a, b, c, d),
    and is empty otherwise.

    An element is the product of packed rows g^{-1} s g, with g^{-1} the
    inverse the reduction keeps (`_conjugate`).

    Conjugation by g is a group isomorphism, so products and orders of
    elements are taken on their frame data (`frame_product`,
    `frame_order`), in the finite group Stab(v_n), without forming any
    element; `frame_of` reads the frame data back off an element.
    """

    __slots__ = ("base_vertex", "reduction", "level_n", "field",
                 "torus_map", "m", "top", "_kb", "_dim", "kernel",
                 "_triangular", "_order")

    def __init__(self, base_vertex, reduction, torus, kernel, top=None):
        self.base_vertex = base_vertex
        self.reduction = reduction
        self.level_n = level_n = reduction.level_n
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
        group holds every translation of the neighbor labels: only
        t^n - (t^n mod M) has one, the last vector when k = n."""
        return self.top == self.level_n and self._dim > 0

    def fixed_labels(self):
        """The neighbor labels the group fixes, as a list; it is transitive
        on the others.  A neighbor of v is labelled in the frame of v_n by
        P^1(F_q): v_{n+1} is infinity (None) and the child c t^n + t^(n-1) O
        of v_n is c (`quotient.frame_label`).

        Triangular S (Nagao) moves x to (alpha x + b_n) / beta.  If S holds
        translations, it fixes only infinity.  Else b_n = alpha na_n +
        beta nc_n, the pair (1, 1) is the identity iff na_n + nc_n = 0, and
        S scales about nc_n by alpha/beta: it fixes infinity and nc_n, or
        every label on the scalar line or at q = 2.  A level-0 kernel V has
        some c != 0, and S fixes its common eigenlines, the common roots z
        of c z^2 + (d - a) z - b: none for M2 and F_{q^2} (its units mod
        F_q*, of order q + 1, act freely); the line of a Borel subalgebra,
        or the kernel of N in the dual numbers F_q[N], where 1 + lambda N
        moves the other q lines transitively; the two eigenlines of
        F_q x F_q, whose units scale the others transitively."""
        f, q, n = self.field, self.field.q, self.level_n
        add, mul, neg = f.add, f.mul, f.neg
        mu, na, nc = self.torus_map
        if mu not in (None, 1):
            raise HeckeInconsistency("the torus pairs alpha = %d*beta of a "
                                     "stabilizer miss the pair (1, 1)" % mu)
        if self.kernel:
            return [z for z in range(q) if all(
                add(mul(add(mul(c, z), add(d, neg(a))), z), neg(b)) == 0
                for a, b, c, d in self.kernel)]
        if self.holds_translations():
            return [None]
        if add(na[n], nc[n]):
            raise HeckeInconsistency(
                "the pair (1, 1) of the stabilizer of %s is no identity"
                % self.base_vertex.to_text())
        return [None, *range(q)] if mu == 1 or q == 2 else [None, nc[n]]

    def edge_group(self, x):
        """The edge group Stab(v) n Stab(w), w the neighbor of v of label x
        (`fixed_labels`), as a descriptor in the frame of v: the elements
        whose Moebius map fixes x, c = 0 for x = infinity and
        c x^2 + (d - a) x - b_n = 0 else.  At c = 0, b_n = x (beta - alpha):
        when the group holds translations, t^n - (t^n mod M) is dropped (top
        degree n - 1), and na and nc move by multiples of it to b_n = -x and
        x; else the row cuts the torus pairs (`_torus_restrict`).  A level-0
        kernel is cut by its row (`_cut`) and kept only while some c != 0 in
        it.  No element is formed or listed."""
        n, f = self.level_n, self.field
        (mu, na, nc), top, kernel = self.torus_map, self.top, ()
        if x is not None:
            if self.holds_translations():
                vadd, vscale = f.vadd, f.vscale
                last, top = self.torus[3][-1], n - 1
                na = vadd(na, vscale(f.add(f.neg(x), f.neg(na[n])), last))
                nc = vadd(nc, vscale(f.add(x, f.neg(nc[n])), last))
            else:
                mu = _torus_restrict(f, mu, [(f.add(na[n], x),
                                              f.add(nc[n], f.neg(x)))])
            if self.kernel:
                kernel = _cut(f, self.kernel, (f.neg(x), f.neg(1),
                                               f.mul(x, x), x))
                kernel = kernel if any(vec[2] for vec in kernel) else ()
        return StabDescriptor(self.base_vertex, self.reduction,
                              (mu, na, nc, self.m), kernel, top)

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
        """The `Matrix2` of `element_rows`."""
        return Matrix2.of_rows(self.field, self.element_rows(frame))

    def element_rows(self, frame):
        """The packed rows of g^{-1} s g for the frame data (a, b, c, d) of
        s."""
        red = self.reduction
        return _conjugate(self.field, red, frame, red.rows)

    def frame_of(self, h):
        """The frame data of s = g h g^{-1} (`ray_frame`), h packed rows:
        the inverse of `element_rows`, and None unless h fixes the vertex."""
        f, red = self.field, self.reduction
        return ray_frame(_rows_product(f, _rows_product(f, red.rows, h),
                                       red.inverse), self.level_n)

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
        each of 1, g, ..., g^(s-1), the F_p-basis of F_q (`FieldSpec.basis`),
        spans it."""
        f, (mu, _, _, kb) = self.field, self.torus
        if mu is None:
            return kb
        return [f.vscale(w, vec) for w in f.basis for vec in kb]

    def _torus_lifts(self):
        """Frame data of lifts of generators of the torus pairs: the
        particular elements of (omega, 1) and (1, omega) when the pairs are
        all of (F_q*)^2, of (omega, omega) when they are the scalar line,
        omega the least generator of F_q* (`FieldSpec.primitive`); none at
        q = 2.  A group holds the identity, so any other line alpha =
        mu*beta is an inconsistency."""
        f = self.field
        mu, w = self.torus_map[0], f.primitive
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

    def materialize(self):
        """Full element list, the triangular elements before the level-0
        extras, as an oracle; raises SizeError beyond ENUMERATION_CAP."""
        self.check_order(ENUMERATION_CAP)
        return [self.element(fr) for fr in self.frames()]

    def __repr__(self):
        return ("StabDescriptor(level_n=%d, order=%d, mu=%s, kernel=%d)"
                % (self.level_n, self.order, self.torus_map[0],
                   len(self.kernel)))


def ray_stab_order(q, n):
    """|Stab(v_n)| in GL2(F_q[t]), determinant in F_q*: |GL2(F_q)| at
    n = 0, and (q - 1)^2 q^(n + 1) for the triangular elements above."""
    return (q * q - 1) * (q * q - q) if n == 0 else (q - 1) ** 2 * q ** (n + 1)


def _level0_unit_group(field, kernel):
    """(|V*|, log_q of the order of its largest normal unipotent subgroup)
    for the F_q-subalgebra V of M2(F_q) with basis `kernel`, V holding 1
    and some x with c != 0.

    V is all of M2 (dimension 4), a Borel subalgebra (3) or F_q[x] (2),
    which is F_{q^2}, the dual numbers or F_q x F_q as the characteristic
    polynomial of x has none, one or two roots in F_q."""
    q = field.q
    if len(kernel) == 4:
        return ray_stab_order(q, 0), 0
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


def _check_unknowns(n):
    """Refuse a torus map at level n above SOLVE_UNKNOWNS_CAP.  Its b_0..b_n
    are the unknowns of the congruence b = alpha*x_src - beta*x_dst mod M1,
    answered in closed form; the kernel basis costs O(n^2) in them."""
    if n + 1 > SOLVE_UNKNOWNS_CAP:
        raise SizeError("the congruence solve at level %d has %d unknowns, "
                        "above the cap %d" % (n, n + 1, SOLVE_UNKNOWNS_CAP))


def point_stabilizer(point, v, red):
    """The descriptor of Stab(v), for the vertex v of reduction `red` whose
    g has the first column of `point`: the torus map of the point and
    itself, and at level 0 its algebra V (`points`)."""
    n = red.level_n
    _check_unknowns(n)
    return StabDescriptor(v, red, point.torus(point, n),
                          point.algebra(point) if n == 0 else ())


def stabilizer(v, level):
    """Descriptor of Stab_{H_D}(v), read off the P^1(R/N_D) point of the
    first column of its reduction (`point_stabilizer`)."""
    red = reduce_vertex(v)
    return point_stabilizer(level.point(red.rows[::2]), v, red)


def orbit_witness(level, red_src, red_dst):
    """Some h in H_D with act(h, src) = dst, or None, given both
    reductions, whose levels must agree: g_dst^-1 s g_src for the first s
    that moves the point of g_src to that of g_dst (`points`), through
    the inverse `red_dst` keeps (`_conjugate`)."""
    field, n = level.field, red_src.level_n
    _check_unknowns(n)
    point, point_src = map(level.point, (red_dst.rows[::2],
                                         red_src.rows[::2]))
    torus = point.torus(point_src, n)
    if torus:
        # the first pair: (1, 1), or (1, 1/mu) on the line alpha = mu*beta
        frame = _torus_frame(field, torus, 1, field.inv(torus[0] or 1))
    else:
        # at level 0 the ambient stabilizer is GL2(F_q)
        frame = next(_level0_extras(field, point.algebra(point_src)),
                     None) if n == 0 else None
        if frame is None:
            return None
    return Matrix2.of_rows(field, _conjugate(field, red_dst, frame,
                                             red_src.rows))


def _conjugate(field, red_dst, frame, src):
    """Packed rows of g_dst^-1 s g_src, for the reduction of g_dst, the
    frame data (a, b, c, d) of s and the packed rows of g_src: two
    products through the inverse the reduction keeps."""
    a, b, c, d = frame
    b = list(b)
    while b and not b[-1]:
        b.pop()
    s = [a] if a else [], b, [c] if c else [], [d] if d else []
    return _rows_product(field, _rows_product(field, red_dst.inverse, s), src)


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
    order = ray_stab_order(q, n)
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
        if verify_action and ray_frame(s.key(), n) is None:
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
