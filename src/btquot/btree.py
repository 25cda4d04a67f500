"""The Bruhat-Tits tree of SL2 over F_q((1/t)) in the closed-ball model.

A vertex is the homothety class of a rank-2 lattice over the valuation ring
at infinity; equivalently a closed ball B_a^{|r|} = a + pi^r*O in K, stored
canonically as the radius exponent r together with the pi-expansion of the
center truncated below r.  The lattice of B_a^{|r|} is spanned by the
columns (a, 1) and (pi^r, 0), and GL2 acts by g.[L] = [g(L)].

Neighbor convention: the parent of a vertex is the next larger ball
(radius exponent r-1); its q children are the maximal sub-balls
(radius exponent r+1).  Valency is q+1.

Group elements lie in GL2(F_q[t]).  The program multiplies them as packed
rows (A, B, C, D), the packed coefficient lists of [[A, B], [C, D]]
(`_rows_product`, `_rows_inverse`): a conjugate g^-1 s g, or g s g^-1, is
two products through the inverse of g that its reduction keeps
(`hecke.ReductionResult.inverse`).  A caller receives a `Matrix2` with
`Polynomial` entries, whose `key()` is its packed rows.  F_q(t) appears
only in lattice bases, where pi^r does.

The build, the certification and the presentation move no vertex with a
matrix: `hecke.reduce_vertex` runs Nagao's moves tau_f and I on the exact
center of the ball (Serre, Trees, II.1.6), on packed coefficient lists, and
keeps the result on the vertex (`BallVertex._reduction`), so each vertex
object is reduced once.  That result is the vertex's one frame: g as
packed rows, and the residue matrix the moves induce on the neighbors,
off which the quotient build reads their labels.  `act` forms the lattice
basis g . (basis of v), a product over F_q(t), and canonicalizes it; it
and `canonicalize` are the reference that the tests, the self-test and
the brute-force oracle compare against.
"""

from __future__ import annotations

from .algebra import (AlgebraError, LaurentFragment, Polynomial,
                      RationalFunction, expand_at_infinity, format_fragment,
                      format_polynomial, format_rational, packed_add,
                      packed_mul, parse_fragment)


class TreeError(ValueError):
    pass


class BallVertex:
    """Canonical tree vertex: ball of radius |pi^r| with truncated center.

    `_reduction` holds `hecke.reduce_vertex(self)` once it is computed; it
    is a cache, not part of the value, so equality, hash and key ignore it.
    """

    __slots__ = ("field", "r", "center", "_key", "_reduction")

    def __init__(self, field, r, center):
        if center.cutoff != r:
            center = center.truncate(r)
        self.field = field
        self.r = r
        self.center = center
        self._key = (r, center.key())
        self._reduction = None

    @classmethod
    def base(cls, field):
        """The standard vertex B_0^{|0|} (the class of O x O)."""
        return cls(field, 0, LaurentFragment.zero(field, 0))

    @classmethod
    def standard(cls, field, n):
        """v_n = B_0^{|-n|}, the level-n vertex on the standard ray."""
        return cls(field, -n, LaurentFragment.zero(field, -n))

    def key(self):
        return self._key

    def parity(self):
        return self.r & 1

    def center_rational(self):
        return self.center.to_rational()

    def basis(self):
        """Lattice basis with columns (center, 1) and (pi^r, 0)."""
        f = self.field
        return Matrix2(self.center_rational(),
                       RationalFunction.t_power(f, -self.r),
                       RationalFunction.one(f),
                       RationalFunction.zero(f))

    def parent(self):
        return BallVertex(self.field, self.r - 1, self.center)

    def neighbor(self, i):
        """Entry i of `neighbors`: the parent, or the child of digit i - 1."""
        if not i:
            return self.parent()
        f = self.field
        return BallVertex(f, self.r + 1, LaurentFragment(
            f, self.center.packed_terms + ((self.r, i - 1),), self.r + 1))

    def neighbors(self):
        """Parent followed by the q children in digit order; exactly q+1
        vertices.  This is ascending `key()` order, which callers rely on:
        the parent has the smaller radius exponent, and the children share
        the center up to their last digit (a zero digit leaves it out)."""
        return [self.neighbor(i) for i in range(self.field.q + 1)]

    def __eq__(self, other):
        return (isinstance(other, BallVertex) and self._key == other._key
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field.q, self._key))

    def to_text(self):
        return "r=%d;a=%s" % (self.r, format_fragment(self.center))

    @classmethod
    def from_text(cls, text, field):
        t = "".join(text.split())
        if not t.startswith("r="):
            raise TreeError("vertex text must start with 'r=': %r" % text)
        body = t[2:]
        if ";a=" not in body:
            raise TreeError("vertex text missing ';a=': %r" % text)
        rs, afmt = body.split(";a=", 1)
        try:
            r = int(rs)
        except ValueError:
            raise TreeError("bad radius exponent in %r" % text)
        return cls(field, r, parse_fragment(afmt, field, r))

    def __repr__(self):
        return "BallVertex(%s)" % self.to_text()


class Matrix2:
    """2x2 matrix [[a, b], [c, d]] whose four entries lie in one ring.

    An element of GL2(F_q[t]) holds `Polynomial` entries; a lattice basis
    (`BallVertex.basis`, the input of `canonicalize`) holds
    `RationalFunction` entries, and a product of the two comes out over
    F_q(t).
    """

    __slots__ = ("a", "b", "c", "d", "_key")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d
        self._key = (a.key(), b.key(), c.key(), d.key())

    @classmethod
    def of_rows(cls, field, rows):
        """The matrix over F_q[t] of the packed rows (A, B, C, D)."""
        a, b, c, d = rows
        return cls(Polynomial._of(field, a), Polynomial._of(field, b),
                   Polynomial._of(field, c), Polynomial._of(field, d))

    @classmethod
    def identity(cls, field):
        return cls.of_rows(field, ([1], [], [], [1]))

    @classmethod
    def involution(cls, field):
        """I = [[0,1],[1,0]]."""
        return cls.of_rows(field, ([], [1], [1], []))

    @classmethod
    def translation(cls, f):
        """tau_f = [[1,-f],[0,1]]; acts on balls by center shift a -> a-f."""
        one = Polynomial.one(f.field)
        return cls(one, -f, Polynomial.zero(f.field), one)

    @classmethod
    def diagonal(cls, field, alpha, beta):
        zero = Polynomial.zero(field)
        return cls(Polynomial.constant(field, alpha), zero,
                   zero, Polynomial.constant(field, beta))

    @property
    def field(self):
        return self.a.field

    def det(self):
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other):
        return Matrix2(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    def inverse(self):
        """Adjugate over det; over F_q[t] det must be a unit, in F_q*."""
        det = self.det()
        if det.is_zero():
            raise TreeError("singular matrix")
        try:
            inv = det.inverse()
        except AlgebraError:
            raise TreeError("determinant of %r is not a nonzero constant"
                            % (self,))
        return Matrix2(self.d * inv, -self.b * inv,
                       -self.c * inv, self.a * inv)

    def is_polynomial(self):
        return all(x.is_polynomial() for x in (self.a, self.b, self.c, self.d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Matrix2) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "[[%s, %s], [%s, %s]]" % tuple(
            format_rational(x) for x in self.entries())


def _rows_product(field, x, y):
    """The packed rows of x y, for the packed rows x and y of two matrices
    over F_q[t]."""
    (a, b, c, d), (e, f, g, h) = x, y
    return [packed_add(field, packed_mul(field, u, w), packed_mul(field, v, z))
            for u, v in ((a, b), (c, d)) for w, z in ((e, g), (f, h))]


def _rows_inverse(field, x):
    """The packed rows of x^-1 = adj(x) / det x, for the packed rows x of a
    matrix over F_q[t] whose determinant must lie in F_q*."""
    a, b, c, d = x
    det = packed_add(field, packed_mul(field, a, d),
                     packed_mul(field, packed_mul(field, b, c),
                                [field.neg(1)]))
    if len(det) != 1:
        raise AlgebraError("%s is not a unit of F_q[t]"
                           % format_polynomial(Polynomial._of(field, det)))
    inv = field.inv(det[0])
    minus = [field.neg(inv)]
    return [packed_mul(field, d, [inv]), packed_mul(field, b, minus),
            packed_mul(field, c, minus), packed_mul(field, a, [inv])]


def canonicalize(m):
    """Canonical ball form of the lattice spanned by the columns of m.

    Column operations over the valuation ring O: put the bottom-row entry of
    minimal valuation first, clear the other bottom entry with an O-multiple,
    rescale by the pivot, then read r = nu(top-right) and truncate the
    top-left ratio below r.  Invariant under right multiplication by
    O-unimodular matrices and under global scaling.
    """
    if m.det().is_zero():
        raise TreeError("singular lattice basis")
    a, b, c, d = (x if isinstance(x, RationalFunction)
                  else RationalFunction(x) for x in m.entries())
    if c.valuation() > d.valuation():
        a, b = b, a
        c, d = d, c
    # now nu(c) <= nu(d) and c != 0
    f = d / c
    b = b - f * a
    top_left = a / c
    top_right = b / c
    r = top_right.valuation()
    field = m.field
    return BallVertex(field, r, expand_at_infinity(top_left, r))


def act(g, v):
    """Image of a vertex under g in GL2; requires det(g) != 0."""
    if g.det().is_zero():
        raise TreeError("singular matrix cannot act")
    return canonicalize(g @ v.basis())


def distance(v, w):
    """Tree distance via the ball formula (r-m) + (r'-m),
    m = min(r, r', nu(a-a'))."""
    if v.field != w.field:
        raise TreeError("vertices over different fields")
    diff = v.center_rational() - w.center_rational()
    m = min(v.r, w.r, diff.valuation())
    return (v.r - m) + (w.r - m)


def distance_invariant_factors(v, w):
    """Tree distance via invariant factors of the basis-change matrix:
    |nu(det N) - 2*min nu(N_ij)| for N = M^{-1} M'."""
    n = v.basis().inverse() @ w.basis()
    vmin = min(x.valuation() for x in n.entries())
    return abs(n.det().valuation() - 2 * vmin)


def distance_bfs(v, w, max_depth=8):
    """Tree distance by breadth-first search; None beyond max_depth."""
    if v == w:
        return 0
    frontier = {v.key(): v}
    seen = {v.key()}
    for d in range(1, max_depth + 1):
        nxt = {}
        for u in frontier.values():
            for nb in u.neighbors():
                k = nb.key()
                if k in seen:
                    continue
                if nb == w:
                    return d
                seen.add(k)
                nxt[k] = nb
        frontier = nxt
    return None


__all__ = [
    "TreeError", "BallVertex", "Matrix2", "canonicalize",
    "act", "distance", "distance_invariant_factors", "distance_bfs",
]
