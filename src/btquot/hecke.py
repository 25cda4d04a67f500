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
is Euclid's algorithm on (P, t^K) and never calls `act`.  The I rule is
`btree.invert_ball`.
Whether a candidate lies in H_D is a divisibility condition that is affine
linear over F_q in the torus pair (alpha, beta) and the unipotent
coefficients, so one Gauss-Jordan elimination of the system, with both
torus terms as right-hand sides, decides every torus pair at once (plus one
homogeneous solve at level 0) instead of a q^(n+3) enumeration.  The
enumeration is kept (`brute_force=True` paths) as a correctness oracle,
up to ENUMERATION_CAP elements.
The solver works on packed-int vectors mod N_D: each column t^i*P after
the first is a shift less top*N_D (`_shifted_mod_vectors`); the torus
pairs are all, one line alpha = mu*beta or none, read off the first
nonzero reduced row past the rank (`_torus_blocks`); a span point is one
vector add (`_span_points`), and a level-0 stabilizer walks at most
ENUMERATION_CAP of them, none when s21 vanishes on its kernel.
A stabilizer element g^{-1} s g is F_q-linear in the frame data of s, so
`StabDescriptor` forms each element as one combination, per entry, of
products of the entries of g computed once per descriptor.  The way back,
from a matrix to frame data, is `ray_frame`, which also decides whether
the matrix lies in Stab(v_n); `StabDescriptor.frame_of` reads an element
of GL2(R) through it in the frame of the descriptor's vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (AlgebraError, Polynomial, format_polynomial,
                      parse_polynomial)
from .btree import BallVertex, Matrix2, act, invert_ball


class HeckeError(ValueError):
    pass


class SizeError(HeckeError):
    pass


# the most elements an enumeration lists: a materialized stabilizer or the
# ambient stabilizer the brute-force oracles search
ENUMERATION_CAP = 100000

# the most unknowns b_0..b_n a congruence solve takes: its kernel basis costs
# O(n^2) time and memory, so a vertex at level n >= SOLVE_UNKNOWNS_CAP is
# refused before any column is built
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
        modulus = Polynomial.one(field)
        for poly, mult in prs:
            modulus = modulus * poly ** mult
        self.modulus = modulus
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
                    factors.append((poly, int(tail)))
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
    center-clearing translations tau_f with the inversion I; each I strictly
    shrinks the radius exponent, so the loop terminates.

    The moves run on the ball x + pi^r O with x the exact center P/t^K of
    v: tau_f subtracts from x the polynomial part f of its truncated
    expansion (the quotient of the division, without the terms t^i with
    -i >= r), and I maps x to 1/x and r to r - 2 nu(x) when nu(x) < r, or
    the ball B_0^{|r|} to B_0^{|-r|} (`btree.invert_ball`).  That is
    Euclid's algorithm on (P, t^K) stopped by the radius, so the cost does
    not depend on r.  g is composed by row operations over R; `act` is not
    called.
    """
    field = v.field
    inv = Matrix2.involution(field)
    zero = Polynomial.zero(field)
    word = []
    # the rows of g = word[-1] @ ... @ word[0], over F_q[t]
    a, b = Polynomial.one(field), zero
    c, d = b, a
    num, den = v.center.fraction()
    r = v.r
    while True:
        f, num = divmod(num, den)
        if r <= 0:
            # the ball drops t^i for i <= -r; what is left of x lies in
            # pi^r O, so the center is cleared and the loop ends
            f = (Polynomial(field, (0,) * (1 - r) + f.packed_coeffs[1 - r:])
                 if f.degree > -r else zero)
        if f:
            word.append(Matrix2.translation(f))
            a, b = a - f * c, b - f * d
        if r <= 0:
            break
        word.append(inv)
        a, b, c, d = c, d, a, b
        num, den, r = invert_ball(num, den, r)
    return ReductionResult(-r, tuple(word), Matrix2(a, b, c, d))


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


def _poly_mod_vector(poly, modulus):
    """Packed coefficient vector of poly mod modulus, length deg(modulus)."""
    rem = (poly % modulus).packed_coeffs
    return rem + (0,) * (modulus.degree - len(rem))


def _shifted_mod_vectors(poly, modulus, count):
    """Packed coefficient vectors of t^i * poly mod modulus, i < count: one
    division, then each the previous one shifted up, less its top
    coefficient times the monic modulus."""
    vadd, vscale = _vector_ops(modulus.field)
    m = modulus.degree
    low = tuple(map(modulus.field.neg, modulus.packed_coeffs[:m]))
    out = [_poly_mod_vector(poly, modulus)]
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
    """Solve sum_j x_j * columns[j] = rhs over F_q, entries given as field
    elements or packed ints.

    Returns (particular, kernel_basis) or (None, kernel_basis) when
    inconsistent; vectors are tuples of field elements of length
    len(columns).  With an empty equation list everything solves.
    """
    ncols = len(columns)
    packed = field.packed
    rows = [[packed(col[i]) for col in columns] + [packed(x)]
            for i, x in enumerate(rhs)]
    pivots, kernel = _eliminate(rows, ncols, field)
    kernel = tuple(tuple(map(field.element, vec)) for vec in kernel)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None, kernel
    part = [0] * ncols
    for row, col in zip(rows, pivots):
        part[col] = row[ncols]
    return tuple(map(field.element, part)), kernel


def _torus_blocks(columns, va, vc, field, first_only):
    """The consistent systems sum_j x_j * columns[j] = -(alpha*va + beta*vc)
    over the torus pairs (alpha, beta) in (F_q*)^2, in pair order, as blocks
    ((alpha, beta), particular, kernel) of packed ints; with `first_only`
    the first block alone.

    One elimination of [columns | va | vc] decides every pair: it is
    consistent iff alpha*ra + beta*rc vanishes beyond the rank, ra and rc
    the reduced va and vc.  So every pair is, or the first nonzero row
    (x, y) there leaves at most the line alpha = mu*beta, mu = -y/x, which
    holds iff mu*ra + rc vanishes there.  The particular solution is
    alpha*(-ra) + beta*(-rc) on the pivot rows.
    """
    ncols = len(columns)
    rows = [[col[i] for col in columns] + [x, y]
            for i, (x, y) in enumerate(zip(va, vc))]
    pivots, kernel = _eliminate(rows, ncols, field)
    add, mul, neg = field.add, field.mul, field.neg
    tail = [row[ncols:] for row in rows[len(pivots):] if any(row[ncols:])]
    units = range(1, field.q)
    if not tail:
        pairs = [(ai, bi) for ai in units for bi in units]
    else:
        x, y = tail[0]
        mu = x and y and neg(mul(y, field.inv(x)))
        if not mu or any(add(mul(mu, x), y) for x, y in tail):
            return []
        pairs = [(ai, mul(ai, field.inv(mu))) for ai in units]
    na, nc = [0] * ncols, [0] * ncols
    for row, col in zip(rows, pivots):
        na[col], nc[col] = neg(row[ncols]), neg(row[ncols + 1])
    pairs = pairs[:1] if first_only else pairs
    vadd, vscale = _vector_ops(field)
    by_a = {ai: vscale(ai, na) for ai in {ai for ai, _ in pairs}}
    by_c = {bi: vscale(bi, nc) for bi in {bi for _, bi in pairs}}
    return [((ai, bi), vadd(by_a[ai], by_c[bi]), kernel) for ai, bi in pairs]


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


def _generates_field(field, values):
    """Whether the packed ints `values` generate F_q as a field over F_p,
    that is, lie in no proper subfield F_{p^k}, k | s, whose elements are
    the x with x^(p^k) = x."""
    p, s = field.p, field.s
    return not any(
        s % k == 0 and all(field.element(x) ** p ** k == x for x in values)
        for k in range(1, s))


class StabDescriptor:
    """Compact description of Stab_{H_D}(v).

    Elements are g^{-1} s g for the reduction g of v, each given by the
    frame data (a, b, c, d) of s = [[a, b], [c, d]]: packed ints, b as its
    packed coefficient vector.  For the triangular part,
    s = [[alpha, b], [0, beta]] with (alpha, beta) in F_q* x F_q* and b
    running over an affine solution space of polynomials of degree <= n
    (blocks ((alpha, beta), particular, kernel_basis) of packed ints,
    keyed by the torus pair).  At level 0 the ambient stabilizer is all of
    GL2(F_q); the constant solutions with a nonzero lower-left entry are
    kept separately in `extra`, as frame data.

    With g = [[A, B], [C, D]] and delta = det g in F_q*, the entries of
    g^{-1} s g are F_q-linear in a, c, d and the coefficients b_i of b:

        (1,1) = a AD - d BC - c AB + b CD
        (1,2) = (a - d) BD - c BB + b DD
        (2,1) = (d - a) AC + c AA - b CC
        (2,2) = d AD - a BC + c AB - b CD

    each product taken times delta^{-1}.  The products are computed once
    per descriptor, on first use, and each element is one combination of
    them per entry, b_i contributing t^i times its product.

    Conjugation by g is a group isomorphism, so products and orders of
    elements are taken on their frame data (`frame_product`,
    `frame_order`), in the finite group Stab(v_n), without forming any
    element; `frame_of` reads the frame data back off an element.
    """

    __slots__ = ("base_vertex", "conjugator", "level_n", "level", "field",
                 "blocks", "extra", "_order", "_products")

    def __init__(self, base_vertex, conjugator, level_n, level, blocks, extra):
        self.base_vertex = base_vertex
        self.conjugator = conjugator
        self.level_n = level_n
        self.level = level
        self.field = base_vertex.field
        self.blocks = tuple(blocks)
        self.extra = tuple(extra)
        q = self.field.q
        self._order = sum(q ** len(kb) for _, _, kb in self.blocks) \
            + len(self.extra)
        self._products = None

    @property
    def order(self):
        return self._order

    def unipotent_dim(self):
        """F_q-dimension of the (1,1)-block solution space."""
        for tp, part, kb in self.blocks:
            if tp == (1, 1):
                return len(kb)
        return 0

    def has_distinct_torus_block(self):
        return any(tp[0] != tp[1] for tp, _, _ in self.blocks)

    def torus_pairs(self):
        return tuple(tp for tp, _, _ in self.blocks)

    def _conjugation_products(self):
        """delta^{-1} times AD, BC, CD, BD, DD, AC, CC, -CD, -CC and, when
        there are level-0 extras, AB, BB, AA."""
        if self._products is None:
            A, B, C, D = self.conjugator.entries()
            delta_inv = (A * D - B * C).inverse().packed_coeffs[0]

            def prod(x, y):
                return (x * y).scale(delta_inv)

            cd, cc = prod(C, D), prod(C, C)
            prods = [prod(A, D), prod(B, C), cd, prod(B, D), prod(D, D),
                     prod(A, C), cc, -cd, -cc]
            if self.extra:
                prods += [prod(A, B), prod(B, B), prod(A, A)]
            self._products = prods
        return self._products

    def element(self, frame):
        """g^{-1} s g for the frame data (a, b, c, d) of s."""
        f = self.field
        neg, add = f.neg, f.add
        prods = self._conjugation_products()
        AD, BC, CD, BD, DD, AC, CC, nCD, nCC = prods[:9]
        a, bvec, c, d = frame
        e11 = [(a, 0, AD), (neg(d), 0, BC)]
        e12 = [(add(a, neg(d)), 0, BD)]
        e21 = [(add(d, neg(a)), 0, AC)]
        e22 = [(d, 0, AD), (neg(a), 0, BC)]
        if c:
            AB, BB, AA = prods[9:]
            e11.append((neg(c), 0, AB))
            e12.append((neg(c), 0, BB))
            e21.append((c, 0, AA))
            e22.append((c, 0, AB))
        for i, x in enumerate(bvec):
            if x:
                e11.append((x, i, CD))
                e12.append((x, i, DD))
                e21.append((x, i, nCC))
                e22.append((x, i, nCD))
        comb = Polynomial.combination
        return Matrix2(comb(f, e11), comb(f, e12), comb(f, e21),
                       comb(f, e22))

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
        """An F_p-basis of the unipotent space all blocks share.

        Conjugation by the blocks scales the space by the ratios
        alpha/beta, so its F_q-basis generates it only over the subfield
        the ratios generate; when that is a proper subfield of F_q, the
        basis times omega^i, 1 <= i < s, omega the field generator,
        completes it."""
        f = self.field
        kb = self.blocks[0][2]
        ratios = {f.mul(ai, f.inv(bi)) for ai, bi in self.torus_pairs()}
        if not kb or _generates_field(f, ratios):
            return kb
        basis = list(kb)
        omega = w = f.packed(f.generator())
        for _ in range(1, f.s):
            basis.extend(tuple(f.mul(w, x) for x in vec) for vec in kb)
            w = f.mul(w, omega)
        return basis

    def generator_frames(self):
        """Frame data of a generating set, in `generators` order: each
        torus block's particular element (the identity left out), after the
        first one an F_p-basis of the unipotent space all blocks share, and
        the level-0 extras."""
        frames = []
        for k, ((ai, bi), part, _) in enumerate(self.blocks):
            if (ai, bi) != (1, 1) or any(part):
                frames.append((ai, part, 0, bi))
            if k == 0:
                frames.extend((1, vec, 0, 1)
                              for vec in self._unipotent_basis())
        frames.extend(self.extra)
        return frames

    def generators(self):
        """The elements of `generator_frames`; they generate the whole
        group."""
        return [self.element(fr) for fr in self.generator_frames()]

    def frames(self):
        """Frame data of every element, in `materialize` order: the
        triangular elements block by block, then the level-0 extras."""
        for (ai, bi), part, kb in self.blocks:
            for vec in _span_points(kb, self.field, part):
                yield ai, vec, 0, bi
        yield from self.extra

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
        return ("StabDescriptor(level_n=%d, order=%d, blocks=%d, extra=%d)"
                % (self.level_n, self.order, len(self.blocks),
                   len(self.extra)))


def _stab_solution(level, red_src, red_dst, stabilizer_mode):
    """Blocks and extras for {s : g_dst^{-1} s g_src in H_D}.

    In stabilizer mode red_src is red_dst and the result describes a group;
    otherwise the first solution found is returned as a witness.

    The condition is N_D | (g_dst^{-1} s g_src)[2,1].  With W = adj(g_dst)
    and (a, c) the first column of g_src, the entry of W s g_src is
    alpha*(W21*a) + beta*(W22*c) + b*(W21*c) for triangular s, plus the
    lower-row terms at level 0.  W = delta g_dst^{-1} with delta = det g_dst
    a unit, so N_D divides the entry of W s g_src iff it divides that of
    g_dst^{-1} s g_src, and delta is never computed: W21 = -c_dst and
    W22 = a_dst.
    """
    field = level.field
    n = red_src.level_n
    if n + 1 > SOLVE_UNKNOWNS_CAP:
        raise SizeError("the congruence solve at level %d has %d unknowns, "
                        "above the cap %d" % (n, n + 1, SOLVE_UNKNOWNS_CAP))
    modulus = level.modulus
    w21, w22 = -red_dst.g.c, red_dst.g.a
    a, c = red_src.g.a, red_src.g.c
    columns = _shifted_mod_vectors(w21 * c, modulus, n + 1)
    va = _poly_mod_vector(w21 * a, modulus)
    vc = _poly_mod_vector(w22 * c, modulus)
    blocks = _torus_blocks(columns, va, vc, field, not stabilizer_mode)
    if blocks and not stabilizer_mode:
        return blocks, ()
    extra = ()
    if n == 0:
        # ambient stabilizer is GL2(F_q): the solutions with s21 != 0, if any
        w22a = _poly_mod_vector(w22 * a, modulus)
        cols4 = [va, columns[0], w22a, vc]
        _, kernel4 = solve_affine(cols4, (0,) * modulus.degree, field)
        kernel4 = kernel4 if any(vec[2] for vec in kernel4) else ()
        if stabilizer_mode and field.q ** len(kernel4) > ENUMERATION_CAP:
            raise SizeError("the level-0 stabilizer would walk %d points, "
                            "above the cap %d"
                            % (field.q ** len(kernel4), ENUMERATION_CAP))
        mul = field.mul
        found = ((sa, (sb,), sc, sd) for sa, sb, sc, sd
                 in (_span_points(kernel4, field) if kernel4 else ())
                 if sc and mul(sa, sd) != mul(sb, sc))
        extra = found if stabilizer_mode else itertools.islice(found, 1)
    return blocks, tuple(extra)


def stabilizer(v, level, reduction=None):
    """Descriptor of Stab_{H_D}(v), computed by the linear solver."""
    red = reduction if reduction is not None else reduce_vertex(v)
    blocks, extra = _stab_solution(level, red, red, stabilizer_mode=True)
    return StabDescriptor(v, red.g, red.level_n, level, blocks, extra)


def orbit_witness(level, red_src, red_dst):
    """Some h in H_D with act(h, src) = dst, or None, given both
    reductions.  Levels must already agree."""
    blocks, extra = _stab_solution(level, red_src, red_dst,
                                   stabilizer_mode=False)
    if blocks:
        (ai, bi), part, _ = blocks[0]
        frame = (ai, part, 0, bi)
    elif extra:
        frame = extra[0]
    else:
        return None
    return (red_dst.g.inverse() @ _frame_matrix(level.field, frame)
            @ red_src.g)


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
    "HeckeError", "SizeError", "Level", "parse_level", "is_member",
    "ReductionResult", "reduce_vertex", "ray_frame", "StabDescriptor",
    "stabilizer", "orbit_witness", "orbit_equivalent", "solve_affine",
    "stabilizer_brute_force", "orbit_equivalent_brute_force",
]
