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
B_0^{|-r|} for a zero center), on the exact center P/t^K, so the reduction
is Euclid's algorithm on (P, t^K) and never calls `act`.
Whether a candidate lies in H_D is a divisibility condition that is affine
linear over F_q in the unipotent coefficients, so each test is a handful of
small linear solves instead of a q^(n+3) enumeration.  The enumeration is
kept (`brute_force=True` paths) as a correctness oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (AlgebraError, Polynomial, format_polynomial,
                      parse_polynomial)
from .btree import Matrix2, act


class HeckeError(ValueError):
    pass


class SizeError(HeckeError):
    pass


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
    the ball B_0^{|r|} to B_0^{|-r|}.  That is Euclid's algorithm on (P, t^K)
    stopped by the radius, so the cost does not depend on r.  g is composed
    by row operations over R; `act` is not called.
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
        if not num or den.degree - num.degree >= r:
            num, den, r = zero, Polynomial.one(field), -r
        else:
            num, den, r = den, num, r - 2 * (den.degree - num.degree)
    return ReductionResult(-r, tuple(word), Matrix2(a, b, c, d))


# ---------------------------------------------------------------------------
# linear algebra over F_q


def _residue_vector(rem, modulus):
    """Packed coefficient vector of a residue mod modulus, length
    deg(modulus)."""
    return rem.packed_coeffs + (0,) * (modulus.degree - len(rem.packed_coeffs))


def _poly_mod_vector(poly, modulus):
    """Packed coefficient vector of poly mod modulus, length deg(modulus)."""
    return _residue_vector(poly % modulus, modulus)


def _shifted_mod_vectors(poly, modulus, count):
    """Packed coefficient vectors of t^i * poly mod modulus for i < count:
    each residue is the previous one times t, reduced."""
    rem = poly % modulus
    out = []
    for i in range(count):
        if i:
            rem = rem.shift(1) % modulus
        out.append(_residue_vector(rem, modulus))
    return out


def solve_affine(columns, rhs, field):
    """Solve sum_j x_j * columns[j] = rhs over F_q, entries given as field
    elements or packed ints.

    Returns (particular, kernel_basis) or (None, kernel_basis) when
    inconsistent; vectors are tuples of field elements of length
    len(columns).  With an empty equation list everything solves.
    """
    ncols = len(columns)
    nrows = len(rhs)
    add, mul, neg, packed = field.add, field.mul, field.neg, field.packed
    # build augmented rows of packed ints
    rows = []
    for i in range(nrows):
        rows.append([packed(columns[j][i]) for j in range(ncols)]
                    + [packed(rhs[i])])
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for ri in range(rank, nrows):
            if rows[ri][col]:
                piv = ri
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [mul(x, inv) for x in rows[rank]]
        for ri in range(nrows):
            if ri != rank and rows[ri][col]:
                f = neg(rows[ri][col])
                rows[ri] = [add(x, mul(f, y))
                            for x, y in zip(rows[ri], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    # consistency
    particular = None
    consistent = all(not rows[ri][ncols] for ri in range(rank, nrows))
    if consistent:
        part = [0] * ncols
        for k, col in enumerate(pivots):
            part[col] = rows[k][ncols]
        particular = tuple(map(field.element, part))
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for k, col in enumerate(pivots):
            vec[col] = neg(rows[k][fc])
        kernel.append(tuple(map(field.element, vec)))
    return particular, tuple(kernel)


def _span_points(basis, field):
    """All F_q-combinations of the basis vectors as packed-int tuples,
    deterministic order."""
    if not basis:
        yield tuple()
        return
    add, mul = field.add, field.mul
    basis = [tuple(map(field.packed, b)) for b in basis]
    n = len(basis[0])
    for coeffs in itertools.product(range(field.q), repeat=len(basis)):
        vec = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                vec = [add(x, mul(c, y)) for x, y in zip(vec, b)]
        yield tuple(vec)


# ---------------------------------------------------------------------------
# stabilizers


def _triangular(field, alpha_i, beta_i, bvec):
    """[[alpha, b], [0, beta]] with b given by its coefficient vector."""
    return Matrix2(Polynomial.constant(field, alpha_i),
                   Polynomial(field, bvec), Polynomial.zero(field),
                   Polynomial.constant(field, beta_i))


class StabDescriptor:
    """Compact description of Stab_{H_D}(v).

    Elements are g^{-1} s g for the reduction g of v.  For the triangular
    part, s = [[alpha, b], [0, beta]] with (alpha, beta) in F_q* x F_q* and b
    running over an affine solution space of polynomials of degree <= n
    (blocks, keyed by the torus pair).  At level 0 the ambient stabilizer is
    all of GL2(F_q); solutions with a nonzero lower-left entry are kept
    separately in `extra`.
    """

    __slots__ = ("base_vertex", "conjugator", "_conjugator_inv", "level_n",
                 "level", "field", "blocks", "extra", "_order")

    def __init__(self, base_vertex, conjugator, level_n, level, blocks, extra):
        self.base_vertex = base_vertex
        self.conjugator = conjugator
        self._conjugator_inv = None
        self.level_n = level_n
        self.level = level
        self.field = base_vertex.field
        self.blocks = tuple(blocks)   # ((alpha_int, beta_int), particular, kernel_basis)
        self.extra = tuple(extra)     # constant s-matrices with s21 != 0
        q = self.field.q
        self._order = sum(q ** len(kb) for _, _, kb in self.blocks) \
            + len(self.extra)

    @property
    def order(self):
        return self._order

    @property
    def conjugator_inv(self):
        """g^-1, computed on first use: only `generators` and
        `materialize` conjugate."""
        if self._conjugator_inv is None:
            self._conjugator_inv = self.conjugator.inverse()
        return self._conjugator_inv

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

    def _element_from(self, alpha_i, beta_i, bvec):
        s = _triangular(self.field, alpha_i, beta_i, bvec)
        return self.conjugator_inv @ s @ self.conjugator

    def generators(self):
        """One representative per torus block plus a basis of the shared
        homogeneous unipotent space (and the level-0 residual elements);
        generates the whole group."""
        gens = []
        hom_done = False
        for (ai, bi), part, kb in self.blocks:
            if (ai, bi) != (1, 1) or any(x for x in part):
                gens.append(self._element_from(ai, bi, part))
            if not hom_done:
                for vec in kb:
                    gens.append(self._element_from(1, 1, vec))
                hom_done = True
        for s in self.extra:
            gens.append(self.conjugator_inv @ s @ self.conjugator)
        return gens

    def triangular_elements(self):
        """(alpha_int, beta_int, b) for the frame element
        [[alpha, b], [0, beta]] of each triangular element, b as its
        packed coefficient vector, in `materialize` order."""
        f = self.field
        for (ai, bi), part, kb in self.blocks:
            part = tuple(map(f.packed, part))
            for vec in _span_points(kb, f):
                yield ai, bi, tuple(map(f.add, part, vec)) if vec else part

    def materialize(self, cap=100000):
        """Full element list, the triangular elements before the level-0
        extras; raises SizeError beyond cap."""
        if self.order > cap:
            raise SizeError("stabilizer order %d exceeds cap %d"
                            % (self.order, cap))
        out = [self._element_from(ai, bi, bv)
               for ai, bi, bv in self.triangular_elements()]
        for s in self.extra:
            out.append(self.conjugator_inv @ s @ self.conjugator)
        return out

    def __repr__(self):
        return ("StabDescriptor(level_n=%d, order=%d, blocks=%d, extra=%d)"
                % (self.level_n, self.order, len(self.blocks),
                   len(self.extra)))


def _orbit_linear_data(red_src, red_dst):
    """Shared data for the condition N_D | (g_dst^{-1} s g_src)[2,1].

    With W = g_dst^{-1} and (A, C) the first column of g_src, the entry is
    alpha*(W21*A) + beta*(W22*C) + b*(W21*C) for triangular s, plus the
    lower-row terms at level 0.  W is read off the adjugate of
    g_dst = [[a, b], [c, d]]: W21 = -c/delta, W22 = a/delta with
    delta = det g_dst in F_q*.
    """
    ga, gb, gc, gd = red_dst.g.entries()
    delta_inv = (ga * gd - gb * gc).leading().inverse()
    w21 = (-gc).scale(delta_inv)
    w22 = ga.scale(delta_inv)
    return w21, w22, red_src.g.a, red_src.g.c


def _stab_solution(level, red_src, red_dst, stabilizer_mode):
    """Blocks and extras for {s : g_dst^{-1} s g_src in H_D}.

    In stabilizer mode red_src is red_dst and the result describes a group;
    otherwise the first solution found is returned as a witness.
    """
    field = level.field
    n = red_src.level_n
    modulus = level.modulus
    degm = modulus.degree
    w21, w22, a, c = _orbit_linear_data(red_src, red_dst)
    w21a = w21 * a
    w22c = w22 * c
    w21c = w21 * c
    columns = _shifted_mod_vectors(w21c, modulus, n + 1)
    va = _poly_mod_vector(w21a, modulus)
    vc = _poly_mod_vector(w22c, modulus)
    add, mul, neg = field.add, field.mul, field.neg
    blocks = []
    for ai in range(1, field.q):
        for bi in range(1, field.q):
            rhs = tuple(neg(add(mul(ai, x), mul(bi, y)))
                        for x, y in zip(va, vc))
            part, kernel = solve_affine(columns, rhs, field)
            if part is not None:
                blocks.append(((ai, bi), part, kernel))
                if not stabilizer_mode:
                    return blocks, ()
    extra = []
    if n == 0:
        # ambient stabilizer is GL2(F_q); pick up solutions with s21 != 0
        w22a = _poly_mod_vector(w22 * a, modulus)
        cols4 = [va, columns[0], w22a, vc]
        zero_rhs = (0,) * degm
        _, kernel4 = solve_affine(cols4, zero_rhs, field)
        for vec in _span_points(kernel4, field):
            if not vec:
                continue
            sa, sb, sc, sd = vec
            if not sc:
                continue
            if mul(sa, sd) == mul(sb, sc):
                continue
            extra.append(Matrix2(*(Polynomial.constant(field, x)
                                   for x in vec)))
            if not stabilizer_mode:
                return (), tuple(extra)
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
        s = _triangular(level.field, ai, bi, part)
    elif extra:
        s = extra[0]
    else:
        return None
    return red_dst.g.inverse() @ s @ red_src.g


def orbit_equivalent(v, w, level, red_v=None, red_w=None):
    """Some h in H_D with act(h, v) = w, or None."""
    red_v = red_v if red_v is not None else reduce_vertex(v)
    red_w = red_w if red_w is not None else reduce_vertex(w)
    if red_v.level_n != red_w.level_n:
        return None
    return orbit_witness(level, red_v, red_w)


# ---------------------------------------------------------------------------
# brute-force oracles (correctness checks for the solver)


def _ray_stab_tuples(field, n):
    """Entries (a, b, c, d) as polynomials for the GL2(R) stabilizer of
    v_n = B_0^{|-n|} with determinant in F_q*: all of GL2(F_q) for n = 0,
    upper triangular [[alpha, b], [0, beta]] with deg b <= n for n >= 1.
    Deterministic order."""
    const = {i: Polynomial.constant(field, i) for i in range(field.q)}
    if n == 0:
        for ai in range(field.q):
            for bi in range(field.q):
                for ci in range(field.q):
                    for di in range(field.q):
                        if field.mul(ai, di) != field.mul(bi, ci):
                            yield (const[ai], const[bi], const[ci], const[di])
        return
    zero = Polynomial.zero(field)
    for ai in range(1, field.q):
        for bi in range(1, field.q):
            for packed in range(field.q ** (n + 1)):
                v = packed
                coeffs = []
                for _ in range(n + 1):
                    coeffs.append(v % field.q)
                    v //= field.q
                yield (const[ai], Polynomial(field, coeffs), zero, const[bi])


def _sandwich_data(red_src, red_dst):
    """Products turning the lower-left entry of g_dst^{-1} s g_src into the
    linear combination pa*s_a + pb*s_b + pc*s_c + pd*s_d."""
    w = red_dst.g.inverse()
    ga, gc = red_src.g.a, red_src.g.c
    return w, (w.c * ga, w.c * gc, w.d * ga, w.d * gc)


def stabilizer_brute_force(v, level, verify_action=False):
    """Enumerate Stab_{H_D}(v) through the ambient ray stabilizer; the
    congruence is tested on the lower-left entry alone before any full
    matrix is assembled."""
    red = reduce_vertex(v)
    w, (pa, pb, pc, pd) = _sandwich_data(red, red)
    modulus = level.modulus
    out = []
    for sa, sb, sc, sd in _ray_stab_tuples(v.field, red.level_n):
        h21 = pa * sa + pb * sb + pc * sc + pd * sd
        if modulus.degree > 0 and not (h21 % modulus).is_zero():
            continue
        h = w @ Matrix2(sa, sb, sc, sd) @ red.g
        if verify_action and act(h, v) != v:
            raise HeckeError("ambient stabilizer produced a non-fixing "
                             "element; reduction is inconsistent")
        out.append(h)
    return out


def orbit_equivalent_brute_force(v, w, level):
    """Search the ambient stabilizer directly for a witness."""
    red_v = reduce_vertex(v)
    red_w = reduce_vertex(w)
    if red_v.level_n != red_w.level_n:
        return None
    winv, (pa, pb, pc, pd) = _sandwich_data(red_v, red_w)
    modulus = level.modulus
    for sa, sb, sc, sd in _ray_stab_tuples(v.field, red_v.level_n):
        h21 = pa * sa + pb * sb + pc * sc + pd * sd
        if modulus.degree > 0 and not (h21 % modulus).is_zero():
            continue
        return winv @ Matrix2(sa, sb, sc, sd) @ red_v.g
    return None


__all__ = [
    "HeckeError", "SizeError", "Level", "parse_level", "is_member",
    "ReductionResult", "reduce_vertex", "StabDescriptor", "stabilizer",
    "orbit_witness", "orbit_equivalent", "solve_affine",
    "stabilizer_brute_force", "orbit_equivalent_brute_force",
]
