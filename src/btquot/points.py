"""Points of P^1(R/N_D), R = F_q[t], and their Stab(v_n)-orbits.

The classes over v_n are the Stab(v_n)-orbits on H_D\\GL2(R), which is
P^1(R/N_D): a reduction g of a vertex gives the point (X : Y) = (-c : a)
of its first column (a, c), the bottom row of adj(g) (README, "Notes on
conventions").  A witness g_dst^-1 s g_src lies in H_D iff s moves the
point of g_src to that of g_dst, and the vertex group of v is read off
its point and itself.

Each point keeps its parts (`Point`): e = gcd(X, N_D), M = N_D/e,
d = Y (X/e)^-1 mod M, g0 = gcd(e, M), M1 = M/g0 and
x(d) = ((d - d mod g0)/g0) (e/g0)^-1 mod M1.  An s = [[alpha, b],
[0, beta]] of Stab(v_n), deg b <= n, moves one point to another iff the e
agree, alpha*L(d_src) = beta*L(d_dst) for the linear map L(d) = (d mod g0,
the coefficients of x(d) above t^n), and b = alpha*x(d_src) -
beta*x(d_dst) + M1*F_q[t] (`Point.torus`).  So the pairs (alpha, beta)
are all, one line alpha = mu*beta or none, with solutions alpha*na +
beta*nc + span(kernel), the kernel t^j - (t^j mod M1) for
deg M1 <= j <= n (`hecke._kernel_basis`).  The orbit id of a point names
its Stab(v_n)-orbit (`Point.orbit_id`): (n, e, L(d) scaled to lead with
1) for n >= 1, and at n = 0, where Stab(v_0) is all of GL2(F_q), the least
level-0 id over the points (X + zY : Y) and (a : c) of the cosets of its
triangular part.  At n = 0 the s of GL2(F_q) that move one point to
another are the units of the solutions of one homogeneous linear system
over F_q, the one elimination left (`Point.algebra`, `solve_affine`).
"""

from __future__ import annotations

import functools

from .algebra import packed_combination, packed_divmod, packed_gcd, packed_mul


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
    vadd, vscale, neg = field.vadd, field.vscale, field.neg
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


def _residue(field, x, y, modulus):
    """x*y mod N_D, packed."""
    return packed_divmod(field, packed_mul(field, x, y), modulus)[1]


class Point:
    """The point of P^1(R/N_D) of a packed first column `col` = (a, c) of
    a reduction, at the `level` of N_D, with its parts (module docstring)."""

    def __init__(self, level, col):
        self.level, self.col = level, col
        self.parts, field = self._parts(0), level.field
        self._minus_x = field.vscale(field.neg(1), self.parts[2])

    def _parts(self, z):
        """(e, d mod g0, x(d), M1) of the point (X + zY : Y), or (a : c) at
        z = q, x(d) being d if e or M is 1, padded to deg g0 and deg M1
        entries so that L(d) keeps its places."""
        field, modulus = self.level.field, self.level.modulus.packed_coeffs
        a, c = self.col
        x, y = (a, c) if z == field.q else (packed_combination(
            field, [(field.neg(1), c), (z, a)]) if z else packed_mul(
                field, c, [field.neg(1)]), a)
        e, inv, m = packed_gcd(field, packed_divmod(field, x, modulus)[1],
                               modulus, cofactor=True)
        d = _residue(field, y, inv, m)
        if len(e) == 1 or len(m) == 1:
            return tuple(e), (), tuple(d) + (0,) * (len(m) - 1 - len(d)), m
        g0, inv0, m1 = packed_gcd(field, e, m, cofactor=True)
        quo, rest = packed_divmod(field, d, g0)
        top = _residue(field, quo, inv0, m1)
        return (tuple(e), tuple(rest) + (0,) * (len(g0) - 1 - len(rest)),
                tuple(top) + (0,) * (len(m1) - 1 - len(top)), m1)

    def _id(self, parts, n):
        (e, rest, top, _), field = parts, self.level.field
        vec = rest + top[n + 1:]
        lead = next((z for z in vec if z), 1)
        return n, e, vec if lead == 1 else field.vscale(field.inv(lead), vec)

    @functools.cached_property
    def _zero(self):
        return min(self._id(parts, 0) for parts in [self.parts, *map(
            self._parts, range(1, self.level.field.q + 1))])

    def orbit_id(self, n):
        """The id of this point's Stab(v_n)-orbit."""
        return self._id(self.parts, n) if n else self._zero

    def torus(self, src, n):
        """The torus map (mu, na, nc, M1) at level n of the s of Stab(v_n)
        that move the point `src` to this one, or None: mu None for all
        pairs, else the line L_dst = mu*L_src, and na, nc the x of `src`
        and minus this one's, cut or padded to n + 1 entries."""
        field, (e, rest, top, m1) = self.level.field, self.parts
        e_src, rest_src, top_src, _ = src.parts
        if e != e_src:
            return None
        vec, vec_src = rest + top[n + 1:], rest_src + top_src[n + 1:]
        if vec == vec_src:
            mu = 1 if any(vec) else None
        else:
            i = next((i for i, z in enumerate(vec_src) if z), None)
            mu = i is not None and field.mul(vec[i], field.inv(vec_src[i]))
            if not mu or field.vscale(mu, vec_src) != vec:
                return None
        zero = (0,) * (n + 1)
        return (mu, top_src[:n + 1] + zero[len(top_src):],
                self._minus_x[:n + 1] + zero[len(top):], m1)

    def algebra(self, src):
        """A basis of the level-0 solutions (a, b, c, d) of
        -c_dst*(a*a_src + b*c_src) + a_dst*(c*a_src + d*c_src) = 0 (mod
        N_D), the lower-left entry of adj(g_dst) s g_src, for the columns
        (a_dst, c_dst) of this point and (a_src, c_src) of `src`, kept if
        some c != 0 in it, else (): the F_q-algebra V of a vertex group
        (src = self), or the space whose units with c != 0 are the level-0
        witnesses."""
        field, modulus = self.level.field, self.level.modulus.packed_coeffs
        (a_dst, c_dst), (a_src, c_src) = self.col, src.col
        minus_c = packed_mul(field, c_dst, [field.neg(1)])
        size = len(modulus) - 1
        cols4 = [tuple(col) + (0,) * (size - len(col)) for col in (
            _residue(field, x, y, modulus) for x, y in (
                (minus_c, a_src), (minus_c, c_src), (a_dst, a_src),
                (a_dst, c_src)))]
        _, kernel = solve_affine(cols4, (0,) * size, field)
        return kernel if any(vec[2] for vec in kernel) else ()


__all__ = ["Point", "solve_affine"]
