import random
import time

import pytest

from btquot.algebra import (INF, FieldSpec, LaurentFragment, Polynomial,
                            RationalFunction, expand_at_infinity)
from btquot.btree import BallVertex, Matrix2, act
from btquot.hecke import (HeckeError, Level, ReductionResult, SizeError,
                          is_member, orbit_equivalent,
                          orbit_equivalent_brute_force, parse_level,
                          reduce_vertex, solve_affine, stabilizer,
                          stabilizer_brute_force)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
ORACLE_FIELDS = [F2, F3, FieldSpec(2, 2), FieldSpec(5), FieldSpec(3, 2)]


def ball(field, r, terms):
    return BallVertex(field, r, LaurentFragment(field, terms, r))


def poly(text, field):
    from btquot.algebra import parse_polynomial
    return parse_polynomial(text, field)


def torus_blocks(columns, va, vc, field):
    """The reference for the solver's torus map: the systems
    sum_j x_j * columns[j] = -(alpha*va + beta*vc) over the torus pairs,
    as one linear map (mu, na, nc, kernel) of packed ints, or None when no
    pair is consistent, by one Gauss-Jordan elimination of
    [columns | va | vc].  A pair is consistent iff alpha*ra + beta*rc
    vanishes beyond the rank, ra and rc the reduced va and vc (the torus
    set mu of `_torus_restrict`), and its particular solution is
    alpha*na + beta*nc, na and nc being -ra and -rc on the pivot rows."""
    from btquot.hecke import _torus_restrict
    from btquot.points import _eliminate
    ncols = len(columns)
    rows = [[col[i] for col in columns] + [x, y]
            for i, (x, y) in enumerate(zip(va, vc))]
    pivots, kernel = _eliminate(rows, ncols, field)
    mu = _torus_restrict(field, None, [r[ncols:] for r in rows[len(pivots):]])
    if mu == 0:
        return None
    na, nc = [0] * ncols, [0] * ncols
    for row, col in zip(rows, pivots):
        na[col], nc[col] = field.neg(row[ncols]), field.neg(row[ncols + 1])
    return mu, tuple(na), tuple(nc), kernel


def expand_torus(field, torus):
    """The blocks ((alpha, beta), alpha*na + beta*nc, kernel) of the torus
    map (mu, na, nc, kernel) of `torus_blocks`, pair by pair in pair
    order: every (alpha, beta) in (F_q*)^2 for mu None, else those with
    alpha = mu*beta; none for None."""
    if torus is None:
        return []
    mu, na, nc, kernel = torus
    add, mul = field.add, field.mul
    units = range(1, field.q)
    return [((ai, bi), tuple(add(mul(ai, x), mul(bi, y))
                             for x, y in zip(na, nc)), kernel)
            for ai in units for bi in units
            if mu is None or ai == mul(mu, bi)]


def rand_member(field, level, rng, steps=4):
    g = Matrix2.identity(field)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            f = Polynomial(field, [rng.randrange(field.q) for _ in range(3)])
            m = Matrix2.translation(f)
        elif kind == 1:
            lower = level.modulus * Polynomial(
                field, [rng.randrange(field.q) for _ in range(2)])
            m = Matrix2(Polynomial.one(field), Polynomial.zero(field), lower,
                        Polynomial.one(field))
        else:
            m = Matrix2.diagonal(field,
                                 field.element(rng.randrange(1, field.q)),
                                 field.element(rng.randrange(1, field.q)))
        g = m @ g
    return g


class TestLevel:
    def test_parse_forms(self):
        assert str(parse_level("t", F2)) == "t"
        assert str(parse_level("t;t+1", F2)) == "t;t+1"
        lvl = parse_level("t^3", F2)
        assert lvl.primes[0][1] == 3
        assert lvl.modulus == poly("t^3", F2)

    def test_text_round_trips(self):
        """Every factor but t is parenthesized when it has a multiplicity,
        and the text of each level the digest sweep runs parses back to
        the level."""
        from digest_sweep import DEEP_BUILDS, DEEP_CUSP_LEVELS, LEVELS
        assert str(parse_level("t^3;(t+1)^3", F2)) == "t^3;(t+1)^3"
        assert str(parse_level("(t^2+t+1)^2;t+1", F2)) == \
            "t+1;(t^2+t+1)^2"
        texts = [(FieldSpec(p, s), text) for (p, s), levels in LEVELS.items()
                 for text in levels]
        texts += [(F2, text) for text in DEEP_CUSP_LEVELS]
        texts += [(FieldSpec(p), text) for p, text, _ in DEEP_BUILDS]
        for field, text in texts:
            level = parse_level(text, field)
            assert parse_level(str(level), field) == level, text

    def test_caret_is_multiplicity_not_power(self):
        lvl = parse_level("t^2+t+1", F2)
        assert lvl.primes[0][0] == poly("t^2+t+1", F2)
        assert lvl.primes[0][1] == 1

    def test_zero_level(self):
        lvl = parse_level("0", F2)
        assert lvl.is_zero() and lvl.r == 0 and lvl.degree == 0
        assert lvl.modulus == Polynomial.one(F2)

    def test_rejects_reducible(self):
        with pytest.raises(HeckeError):
            parse_level("t^2+t", F2)

    def test_rejects_repeated(self):
        with pytest.raises(HeckeError):
            parse_level("t;t", F2)

    def test_rejects_non_monic(self):
        with pytest.raises(HeckeError):
            parse_level("2*t", F3)

    def test_degree(self):
        assert parse_level("t^3;t+1", F2).degree == 4

    def test_degree_cap(self):
        """A level of degree above MAX_DEGREE is refused before N_D is
        formed, whether one multiplicity or the sum of several is too
        large."""
        from btquot.algebra import MAX_DEGREE
        t0 = time.perf_counter()
        for text in ("t^99999999", "t^%d" % (MAX_DEGREE + 1),
                     "t^2048;(t+1)^2049", "t^%d" % 10 ** 100):
            with pytest.raises(HeckeError, match="above the degree cap %d"
                               % MAX_DEGREE):
                parse_level(text, F2)
        assert time.perf_counter() - t0 < 1.0


class TestMembership:
    def test_examples(self):
        lvl = parse_level("t", F2)
        m = Matrix2(Polynomial.one(F2), Polynomial.zero(F2),
                    Polynomial.t(F2), Polynomial.one(F2))
        assert is_member(m, lvl)
        assert not is_member(Matrix2.involution(F2), lvl)
        assert not is_member(m, parse_level("t^2", F2))

    def test_determinant_must_be_unit_constant(self):
        lvl = parse_level("0", F2)
        t = Polynomial.t(F2)
        g = Matrix2(t, Polynomial.zero(F2),
                    Polynomial.zero(F2), Polynomial.one(F2))
        assert not is_member(g, lvl)

    def test_entries_must_be_polynomial(self):
        lvl = parse_level("0", F2)
        g = Matrix2(RationalFunction.t_power(F2, 1),
                    RationalFunction.zero(F2), RationalFunction.zero(F2),
                    RationalFunction.t_power(F2, -1))
        assert not is_member(g, lvl)


class TestReduce:
    def test_already_standard(self):
        red = reduce_vertex(BallVertex.standard(F2, 3))
        assert red.level_n == 3 and red.word == ()

    def test_documented_word(self):
        red = reduce_vertex(ball(F2, 2, {-1: 1}))  # center t, radius pi^2
        assert red.level_n == 2
        assert red.word == ([0, 1], None)  # tau_t, then I
        expected = (Matrix2.involution(F2)
                    @ Matrix2.translation(Polynomial.t(F2)))
        assert red.g == expected

    def test_positive_radius_center_zero(self):
        red = reduce_vertex(ball(F2, 1, {}))
        assert red.level_n == 1 and len(red.word) == 1

    def test_reduction_contract_random(self):
        rng = random.Random(21)
        for _ in range(60):
            field = (F2, F3)[rng.randrange(2)]
            r = rng.randint(-4, 5)
            terms = {e: rng.randrange(field.q) for e in range(r - 4, r)}
            v = ball(field, r, {e: c for e, c in terms.items() if c})
            red = reduce_vertex(v)
            assert red.level_n >= 0
            assert act(red.g, v) == BallVertex.standard(field, red.level_n)
            det = red.g.det()
            assert det.is_polynomial() and det.num.degree == 0
            assert red.g.is_polynomial()


def polynomial_part(fragment):
    """The terms of a pi-expansion fragment with exponent <= 0, as a
    polynomial in t: the translation the reference reduction applies."""
    low = [(e, c) for e, c in fragment.packed_terms if e <= 0]
    coeffs = [0] * (1 - low[0][0]) if low else []
    for e, c in low:
        coeffs[-e] = c
    return Polynomial(fragment.field, coeffs)


def fragment_valuation(fragment):
    """nu at infinity of a fragment: its least exponent, +inf for 0."""
    return fragment.packed_terms[0][0] if fragment.packed_terms else INF


class TestPolynomialPart:
    """The oracle's `polynomial_part` helper."""

    def test_mixed_exponents(self):
        x = LaurentFragment(F2, {-2: 1, -1: 1, 1: 1}, 2)
        assert polynomial_part(x) == poly("t^2+t", F2)

    def test_positive_only(self):
        assert polynomial_part(LaurentFragment(F2, {1: 1, 2: 1}, 3)).is_zero()

    def test_constant(self):
        F5 = FieldSpec(5)
        x = LaurentFragment(F5, {0: 3}, 1)
        assert polynomial_part(x) == Polynomial.constant(F5, 3)

    def test_polynomial_part_is_euclidean_quotient(self):
        rng = random.Random(6)

        def rand_poly(field):
            return Polynomial(field, [rng.randrange(field.q)
                                      for _ in range(rng.randint(1, 5))])

        for field in (F2, F3):
            for _ in range(60):
                num, den = rand_poly(field), rand_poly(field)
                if den.is_zero():
                    continue
                f = RationalFunction(num, den)
                frag = expand_at_infinity(f, rng.randint(1, 5))
                assert polynomial_part(frag) == f.num // f.den


def reduce_vertex_by_act(v):
    """Reference reduction (n, word, g): each move goes through the
    generic `act`, and g is the matrix product of the word."""
    field = v.field
    inv = Matrix2.involution(field)
    word = []
    cur = v
    while True:
        if cur.center.is_zero():
            if cur.r <= 0:
                n = -cur.r
                break
            word.append(inv)
            cur = act(inv, cur)
            continue
        f = polynomial_part(cur.center)
        if not f.is_zero():
            move = Matrix2.translation(f)
            word.append(move)
            cur = act(move, cur)
            if cur.center.is_zero():
                continue
        word.append(inv)
        cur = act(inv, cur)
    g = Matrix2.identity(field)
    for move in word:
        g = move @ g
    return n, tuple(word), g


def packed_moves(word):
    """A word of `Matrix2` moves as `reduce_vertex` gives it: None for I,
    and the packed list of f for tau_f = [[1, -f], [0, 1]]."""
    return [None if m.c else list((-m.b).packed_coeffs) for m in word]


def oracle_vertices():
    """Seeded vertices for the ball-native moves: random centers of up to
    20 terms with r in [-6, 24] (valuations <= 0 included), zero centers
    on both sides of r = 0, and deep partner-like vertices x.v, x in H_D,
    as the orbit queries reduce them; over the oracle fields and F_7, F_8."""
    rng = random.Random(31)
    out = []
    for field in ORACLE_FIELDS + [FieldSpec(7), FieldSpec(2, 3)]:
        for r in (-3, 0, 2, 7):
            out.append(ball(field, r, {}))
        for _ in range(16):
            r = rng.randint(-6, 24)
            lo = r - rng.randint(1, 20)
            out.append(ball(field, r, {e: rng.randrange(field.q)
                                       for e in range(lo, r)}))
        level = parse_level("t^2" if field.q < 5 else "t", field)
        for _ in range(4):
            r = rng.randint(5, 10)
            v = ball(field, r, {e: rng.randrange(1, field.q)
                                for e in rng.sample(range(1, r), 4)})
            out.append(act(rand_member(field, level, rng, steps=5), v))
    return out


class TestBallNativeReduction:
    @pytest.fixture(scope="class")
    def vertices(self):
        return oracle_vertices()

    def test_sample_shape(self, vertices):
        assert len(vertices) >= 120
        assert sum(v.r >= 16 for v in vertices) >= 20
        assert any(fragment_valuation(v.center) <= 0 for v in vertices)
        assert {v.field.q for v in vertices} == {2, 3, 4, 5, 7, 8, 9}

    def test_reduction_equals_act_oracle(self, vertices):
        for v in vertices:
            red, (n, word, g) = reduce_vertex(v), reduce_vertex_by_act(v)
            assert red.level_n == n, v
            assert list(red.word) == packed_moves(word), v
            assert red.g.key() == g.key(), v

    def test_each_vertex_is_reduced_once(self, monkeypatch):
        """The reduction is kept on the vertex: `reduce_vertex`,
        `stabilizer` and `orbit_equivalent` on fresh v and w run the
        reduction loop once for v and once for w."""
        from btquot import hecke
        runs = []
        kernel = hecke._nagao_reduction

        def counted(v):
            runs.append(v)
            return kernel(v)

        monkeypatch.setattr(hecke, "_nagao_reduction", counted)
        lvl = parse_level("t^2", F3)
        v = ball(F3, 9, {1: 1, 4: 2, 7: 1})
        w = act(rand_member(F3, lvl, random.Random(4)), v)
        reduce_vertex(v)
        stabilizer(v, lvl)
        assert orbit_equivalent(v, w, lvl) is not None
        assert len(runs) == 2 and runs[0] is v and runs[1] is w

    def test_determinant_is_the_sign_of_the_word(self, vertices):
        """det g = (-1)^(number of I, None, in the word): the translations
        have determinant 1 and I has -1.  So det g is a unit, which the
        orbit solver leaves out of the adjugate of g."""
        for v in vertices:
            red = reduce_vertex(v)
            inversions = red.word.count(None)
            sign = v.field.neg(1) if inversions % 2 else 1
            assert red.g.det() == Polynomial.constant(v.field, sign), v


class TestSolveAffine:
    def test_unique_solution(self):
        part, kern = solve_affine([(1, 0), (0, 1)], (2, 1), F3)
        assert part == (2, 1) and kern == ()

    def test_inconsistent(self):
        part, kern = solve_affine([(0, 0)], (1, 0), F3)
        assert part is None and kern == ((1,),)

    def test_no_equations(self):
        part, kern = solve_affine([(), ()], (), F3)
        assert part == (0, 0) and kern == ((1, 0), (0, 1))

    def test_torus_blocks_equal_per_pair_solves(self):
        """One elimination of [columns | va | vc] gives, for every torus
        pair, the block a solve of that pair's system alone gives, in pair
        order, once its linear map is expanded pair by pair.  The systems
        are seeded: rank-deficient columns, inconsistent pairs and the
        empty system of D = 0 all occur."""
        rng = random.Random(25)
        seen = {"deficient": 0, "inconsistent": 0, "empty": 0}
        for field in ORACLE_FIELDS:
            for trial in range(40):
                nrows, ncols = rng.randint(0, 4), rng.randint(1, 5)
                columns = [[rng.randrange(field.q) for _ in range(nrows)]
                           for _ in range(ncols)]
                if ncols > 1 and trial % 2:
                    # a combination of two other columns
                    c, x, y = rng.randrange(1, field.q), *rng.sample(
                        range(ncols), 2)
                    columns[x] = [field.mul(c, v) for v in columns[y]]
                va = [rng.randrange(field.q) for _ in range(nrows)]
                vc = [rng.randrange(field.q) for _ in range(nrows)]
                expected = []
                for ai in range(1, field.q):
                    for bi in range(1, field.q):
                        rhs = [field.neg(field.add(field.mul(ai, x),
                                                   field.mul(bi, y)))
                               for x, y in zip(va, vc)]
                        part, kernel = solve_affine(columns, rhs, field)
                        if part is None:
                            seen["inconsistent"] += 1
                            continue
                        expected.append(((ai, bi), part, kernel))
                seen["deficient"] += len(kernel) > max(ncols - nrows, 0)
                seen["empty"] += nrows == 0
                assert expand_torus(field, torus_blocks(
                    columns, va, vc, field)) == expected, \
                    (field, columns, va, vc)
        assert all(seen.values()), seen

    def test_torus_blocks_equal_full_side_reference(self):
        """`torus_blocks` reads the consistent pairs off the first nonzero
        row beyond the rank; a reference that eliminates once and then
        builds the whole side alpha*ra + beta*rc for every pair gives the
        same blocks in the same order.  The seeded systems put (va, vc)
        in the column span (every pair consistent), vc = lam*va modulo the
        span with va outside it (a line), or both outside (none, or a line
        by chance); each case occurs over every field."""
        from btquot.points import _eliminate
        rng = random.Random(26)

        def reference(columns, va, vc, field):
            ncols = len(columns)
            rows = [[col[i] for col in columns] + [x, y]
                    for i, (x, y) in enumerate(zip(va, vc))]
            pivots, kernel = _eliminate(rows, ncols, field)
            add, mul, neg = field.add, field.mul, field.neg
            blocks = []
            for ai in range(1, field.q):
                for bi in range(1, field.q):
                    side = [add(mul(ai, row[ncols]), mul(bi, row[ncols + 1]))
                            for row in rows]
                    if any(side[len(pivots):]):
                        continue
                    part = [0] * ncols
                    for col, x in zip(pivots, side):
                        part[col] = neg(x)
                    blocks.append(((ai, bi), tuple(part), kernel))
            tail = any(any(row[ncols:]) for row in rows[len(pivots):])
            return blocks, tail

        def combination(field, vectors, nrows):
            out = [0] * nrows
            for vec in vectors:
                c = rng.randrange(field.q)
                out = [field.add(x, field.mul(c, y)) for x, y in zip(out, vec)]
            return out

        for field in ORACLE_FIELDS:
            seen = set()
            for trial in range(60):
                nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
                columns = [[rng.randrange(field.q) for _ in range(nrows)]
                           for _ in range(ncols)]
                if trial % 3 == 0:
                    # rank-deficient columns leave rows beyond the rank
                    columns = [combination(field, columns[:1], nrows)
                               for _ in columns]
                va = [rng.randrange(field.q) for _ in range(nrows)]
                vc = [rng.randrange(field.q) for _ in range(nrows)]
                kind = trial % 4
                if kind == 0:
                    va = combination(field, columns, nrows)
                    vc = combination(field, columns, nrows)
                elif kind in (1, 2):
                    lam = rng.randrange(1, field.q)
                    vc = [field.add(field.mul(lam, x), y) for x, y in
                          zip(va, combination(field, columns, nrows))]
                expected, tail = reference(columns, va, vc, field)
                seen.add("line" if tail and expected else
                         "none" if tail else "every")
                assert expand_torus(field, torus_blocks(
                    columns, va, vc, field)) == expected, \
                    (field, columns, va, vc)
            assert seen == {"every", "line", "none"}, (field, seen)

    def test_span_points_equal_product_reference(self):
        """`_span_points` walks tables of multiples with running partial
        sums; its points equal the sums taken afresh for each coefficient
        tuple of `itertools.product`, in that order, over F_2, F_3, F_4,
        F_5 and F_9, for the empty basis, bases holding zero vectors, and
        with an origin added."""
        import itertools
        from btquot.hecke import _span_points
        rng = random.Random(27)

        def reference(basis, field, origin):
            for coeffs in itertools.product(range(field.q),
                                            repeat=len(basis)):
                vec = list(origin)
                for c, b in zip(coeffs, basis):
                    vec = [field.add(x, field.mul(c, y))
                           for x, y in zip(vec, b)]
                yield tuple(vec)

        assert list(_span_points([], F3)) == [()]
        assert list(_span_points([], F3, (1, 2))) == [(1, 2)]
        for field in ORACLE_FIELDS:
            for k in range(1, 5 if field.q < 9 else 4):
                for _ in range(3):
                    n = rng.randint(1, 4)
                    basis = [tuple(rng.randrange(field.q) for _ in range(n))
                             for _ in range(k)]
                    basis[rng.randrange(k)] = (0,) * n
                    origin = tuple(rng.randrange(field.q) for _ in range(n))
                    assert list(_span_points(basis, field)) == list(
                        reference(basis, field, (0,) * n))
                    assert list(_span_points(basis, field, origin)) == list(
                        reference(basis, field, origin))
            # basis vectors given as field elements are read as packed ints
            elems = [tuple(field.element(x) for x in b) for b in basis]
            assert list(_span_points(elems, field)) == list(
                _span_points(basis, field))

    def test_shifted_columns_equal_full_reduction(self):
        """The solver's columns t^i * P mod N_D, each from the previous
        residue by a shift and one subtraction of a multiple of N_D, equal
        the full product reduced from scratch, for counts from 0 to beyond
        2 deg N_D."""
        from btquot.hecke import _mod_vectors
        rng = random.Random(24)
        for field in ORACLE_FIELDS:
            for text in ("0", "t", "t^3", "t^2;t+1", "t^3;t+1"):
                modulus = parse_level(text, field).modulus
                m = modulus.degree
                for count in (0, 1, m + 1, 2 * m + 3):
                    p = Polynomial(field, [rng.randrange(field.q)
                                           for _ in range(rng.randint(0, 9))])
                    full = [(p.shift(i) % modulus).packed_coeffs
                            for i in range(count)]
                    assert _mod_vectors(field, p.packed_coeffs,
                                        modulus.packed_coeffs, count) == [
                        rem + (0,) * (m - len(rem)) for rem in full]


class TestStabilizer:
    def test_orders_on_the_ray_level_t_q2(self):
        lvl = parse_level("t", F2)
        assert stabilizer(BallVertex.standard(F2, 1), lvl).order == 4
        assert stabilizer(ball(F2, 1, {}), lvl).order == 2

    def test_base_vertex_level_t_q3(self):
        # the full stabilizer of the base vertex is the upper triangular
        # constants [[a, b], [0, d]]: order (q-1)^2 * q
        lvl = parse_level("t", F3)
        sd = stabilizer(BallVertex.base(F3), lvl)
        assert sd.order == 12
        mats = sd.materialize()
        assert sorted(m.key() for m in mats) == sorted(
            m.key() for m in stabilizer_brute_force(BallVertex.base(F3), lvl,
                                                    verify_action=True))
        for h in mats:
            assert h.c.is_zero()

    def test_materialize_verifies(self):
        rng = random.Random(22)
        lvl = parse_level("t^2", F3)
        v = act(rand_member(F3, lvl, rng), BallVertex.standard(F3, 2))
        sd = stabilizer(v, lvl)
        mats = sd.materialize()
        assert len(mats) == sd.order
        for h in mats:
            assert is_member(h, lvl)
            assert act(h, v) == v

    def test_materialize_cap(self):
        lvl = parse_level("t", F2)
        sd = stabilizer(BallVertex.standard(F2, 6), lvl)
        with pytest.raises(SizeError):
            sd.materialize(cap=0)

    def test_level_zero_kernel_cap(self):
        """At D = 0 the level-0 system has no equations, so its kernel is
        all of F_q^4.  At q = 31 its 31^4 points are above the enumeration
        cap, yet the stabilizer answers, its order GL2(F_31)'s in closed
        form, and witness mode walks only to its first point.  At D = t
        the lower-left entry vanishes on the whole kernel, so no kernel is
        kept: q = 47 answers from the triangular blocks."""
        F31, F47 = FieldSpec(31), FieldSpec(47)
        base = BallVertex.base(F31)
        sd = stabilizer(base, parse_level("0", F31))
        assert (sd.order, len(sd.kernel)) == (892800, 4)
        v = ball(F31, 2, {1: 1})
        h = orbit_equivalent(v, base, parse_level("0", F31))
        assert h is not None and act(h, v) == base
        sd = stabilizer(BallVertex.base(F47), parse_level("t", F47))
        assert (sd.order, sd.kernel) == (46 ** 2 * 47, ())

    def test_trivial_generators(self):
        # level 0, base vertex, level D = t^2: only scalars survive at q=2
        lvl = parse_level("t", F2)
        sd = stabilizer(BallVertex.base(F2), lvl)
        assert sd.order == 2  # identity and the unipotent constant
        gens = sd.generators()
        closure = {Matrix2.identity(F2).key()}
        for g in gens:
            closure.add(g.key())
        assert len(gens) >= 1

    def test_trivial_stabilizer_edge_cases(self):
        # at level t^3 over F_2 the vertex B_0^{|1|} is fixed by nothing but
        # the identity: materialize is [id], generators is empty
        lvl = parse_level("t^3", F2)
        sd = stabilizer(ball(F2, 1, {}), lvl)
        assert sd.order == 1
        assert sd.materialize() == [Matrix2.identity(F2)]
        assert sd.generators() == []

    def test_unipotent_basis_generators(self):
        # B_0^{|-2|} at level t over F_2: unipotent space {b: deg b <= 2},
        # three basis generators
        lvl = parse_level("t", F2)
        sd = stabilizer(BallVertex.standard(F2, 2), lvl)
        gens = sd.generators()
        assert len(gens) == 3
        assert sd.unipotent_dim() == 3
        assert all(g.c.is_zero() and g.a == Polynomial.one(F2)
                   for g in gens)

    def test_generators_generate(self):
        rng = random.Random(23)
        lvl = parse_level("t", F3)
        for n in (0, 1, 2, 3):
            v = act(rand_member(F3, lvl, rng), BallVertex.standard(F3, n))
            sd = stabilizer(v, lvl)
            gens = sd.generators()
            # close under multiplication and compare against materialize;
            # stop past the order, should the generators be wrong
            seen = {Matrix2.identity(F3).key()}
            frontier = [Matrix2.identity(F3)]
            while frontier and len(seen) <= sd.order:
                cur = frontier.pop()
                for g in gens:
                    nxt = cur @ g
                    if nxt.key() not in seen:
                        seen.add(nxt.key())
                        frontier.append(nxt)
            assert seen == {m.key() for m in sd.materialize()}


class TestBruteForceCheck:
    """`stabilizer_brute_force(..., verify_action=True)` moves the vertex
    once, by its reduction, and checks each element in the frame."""

    VERTICES = [(3, {1: 1, 2: 2}), (4, {-1: 1, 2: 2}), (2, {})]

    @pytest.mark.parametrize("r,terms", VERTICES)
    def test_one_act_per_run(self, monkeypatch, r, terms):
        from btquot import hecke
        calls = []

        def counted(g, v):
            calls.append(v)
            return act(g, v)

        monkeypatch.setattr(hecke, "act", counted)
        lvl = parse_level("t", F3)
        v = ball(F3, r, terms)
        found = stabilizer_brute_force(v, lvl, verify_action=True)
        assert calls == [v]
        assert len(found) == stabilizer(v, lvl).order > 1
        assert all(act(h, v) == v for h in found)

    @pytest.mark.parametrize("r,terms", VERTICES)
    def test_tampered_reduction_raises(self, monkeypatch, r, terms):
        """A reduction g whose image of v is not v_n: g composed with the
        translation by t^(n+1), which moves v_n."""
        from btquot import hecke

        def tampered(v):
            red = reduce_vertex(v)
            shift = Matrix2.translation(
                Polynomial.t(F3).shift(red.level_n))
            rows = tuple(x.packed_coeffs for x in (shift @ red.g).entries())
            return ReductionResult(red.level_n, red.word, rows, red.link,
                                   red.field)

        monkeypatch.setattr(hecke, "reduce_vertex", tampered)
        with pytest.raises(HeckeError, match="does not map it to v_"):
            stabilizer_brute_force(ball(F3, r, terms), parse_level("t", F3),
                                   verify_action=True)


def normal_unipotent_order(field, group):
    """Order of the largest normal unipotent subgroup of the finite group
    `group` of F_q matrices (a, b, c, d), by brute force: its elements are
    the unipotent u whose conjugates generate a group of unipotents."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv

    def prod(x, y):
        return (add(mul(x[0], y[0]), mul(x[1], y[2])),
                add(mul(x[0], y[1]), mul(x[1], y[3])),
                add(mul(x[2], y[0]), mul(x[3], y[2])),
                add(mul(x[2], y[1]), mul(x[3], y[3])))

    def det(x):
        return add(mul(x[0], x[3]), neg(mul(x[1], x[2])))

    def inverse(x):
        k = inv(det(x))
        return mul(x[3], k), neg(mul(x[1], k)), neg(mul(x[2], k)), mul(x[0], k)

    def unipotent(x):
        return add(x[0], x[3]) == add(1, 1) and det(x) == 1

    normal, seen = {(1, 0, 0, 1)}, set()
    for u in group:
        if u in seen or u in normal or not unipotent(u):
            continue
        conjugates = {prod(prod(s, u), inverse(s)) for s in group}
        seen |= conjugates
        closure, frontier = set(conjugates), list(conjugates)
        while frontier and closure is not None:
            x = frontier.pop()
            for z in (prod(x, y) for y in conjugates):
                if not unipotent(z):
                    closure = None
                    break
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
        normal |= closure or set()
    return len(normal)


def irreducible_quadratic(field):
    return next(text for text in ("t^2+t+%d" % c for c in range(field.q))
                if poly(text, field).is_irreducible())


class TestLevelZeroUnitGroup:
    """At a level-0 vertex the stabilizer in the frame is the unit group of
    an F_q-algebra V; its closed-form order and unipotent dimension against
    the brute-force oracle."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_closed_form_against_brute_force(self, q):
        """On r=2;a=s and a seeded level-0 vertex, at D = 0, the powers 1-3
        of t and of an irreducible quadratic P, t(t+1) and tP, every type
        of V occurs over each field: none kept (c = 0 on V), M2, a Borel,
        and F_q[x] split, a field or the dual numbers.  The order is the
        number of solutions the oracle enumerates, the ones
        `stabilizer_brute_force` conjugates; the CLI golden compares it
        with that function on the five types at q=9."""
        from btquot.hecke import _congruent_ray_elements, ray_frame
        from btquot.selftest import _field
        rng = random.Random(53 + q)
        field = _field(q)
        quad = irreducible_quadratic(field)
        types = set()
        for text in ("0", "t", "t^2", "t^3", quad, "(%s)^2" % quad,
                     "(%s)^3" % quad, "t;t+1", "t;" + quad):
            lvl = parse_level(text, field)
            for v in (ball(field, 2, {1: 1}),
                      act(rand_member(field, parse_level("0", field), rng),
                          BallVertex.base(field))):
                red = reduce_vertex(v)
                assert red.level_n == 0
                group = [(a, b[0], c, d) for a, b, c, d in (
                    ray_frame(s.key(), 0)
                    for s in _congruent_ray_elements(lvl, red, red))]
                sd = stabilizer(v, lvl)
                assert sd.order == len(group), (text, v)
                assert q ** sd.unipotent_dim() == \
                    normal_unipotent_order(field, group), (text, v)
                dim = len(sd.kernel)
                types.add(dim if dim != 2 else {
                    (q - 1) ** 2: "split", q * q - 1: "field",
                    q * (q - 1): "dual"}[sd.order])
        assert types == {0, 3, 4, "split", "field", "dual"}


class TestOrbitEquivalence:
    def test_reflexive_returns_witness(self):
        lvl = parse_level("t", F2)
        v = ball(F2, 1, {})
        h = orbit_equivalent(v, v, lvl)
        assert h is not None and act(h, v) == v and is_member(h, lvl)

    def test_ray_vertices_inequivalent_at_level_t(self):
        lvl = parse_level("t", F2)
        a, b = ball(F2, 1, {}), BallVertex.standard(F2, 1)
        assert orbit_equivalent(a, b, lvl) is None
        assert orbit_equivalent_brute_force(a, b, lvl) is None

    def test_equivalent_at_level_zero(self):
        lvl = parse_level("0", F2)
        a, b = ball(F2, 1, {}), BallVertex.standard(F2, 1)
        h = orbit_equivalent(a, b, lvl)
        assert h is not None and act(h, a) == b and is_member(h, lvl)

    def test_level_zero_needs_nontriangular_witness(self):
        # B_pi^{|2|} ~ B_0^{|0|} at level t over F_2; every witness has the
        # shape of an antidiagonal constant in the ambient frame
        lvl = parse_level("t", F2)
        v = ball(F2, 2, {1: 1})
        w = BallVertex.base(F2)
        h = orbit_equivalent(v, w, lvl)
        assert h is not None and act(h, v) == w and is_member(h, lvl)

    def test_witness_for_translated_vertices(self):
        rng = random.Random(24)
        for lvl_text in ("t", "t^2", "t;t+1"):
            lvl = parse_level(lvl_text, F3)
            for _ in range(15):
                v = ball(F3, rng.randint(-2, 3), {})
                h0 = rand_member(F3, lvl, rng)
                w = act(h0, v)
                h = orbit_equivalent(v, w, lvl)
                assert h is not None
                assert act(h, v) == w and is_member(h, lvl)

    def test_different_levels_never_equivalent(self):
        lvl = parse_level("t", F2)
        assert orbit_equivalent(BallVertex.standard(F2, 1),
                                BallVertex.standard(F2, 2), lvl) is None


class TestGeneratingSet:
    def test_witness_is_the_matrix_product(self):
        """`orbit_witness` forms g_dst^-1 s g_src by packed-row products
        through the inverse its reduction keeps: the same matrix as the
        `Matrix2` product of the three, on triangular witnesses and on
        level-0 ones with c != 0."""
        from btquot.hecke import _level0_extras, orbit_witness
        from btquot.points import Point
        rng = random.Random(41)
        lower = 0
        for field in ORACLE_FIELDS:
            one, t = Polynomial.one(field), Polynomial.t(field)
            for lvl_text in ("0", "t", "t^2"):
                lvl = parse_level(lvl_text, field)
                # the base vertex moved by [[1, 0], [N_D, 1]] in H_D needs
                # a witness with c != 0 at D = t
                low = t if lvl.is_zero() else lvl.modulus
                pairs = [(BallVertex.base(field),
                          Matrix2(one, Polynomial.zero(field), low, one))]
                for _ in range(8):
                    r = rng.randint(-2, 4)
                    pairs.append((ball(field, r, {
                        e: rng.randrange(field.q) for e in range(r - 3, r)}),
                        rand_member(field, lvl, rng)))
                for v, h in pairs:
                    w = act(h, v)
                    red_v, red_w = reduce_vertex(v), reduce_vertex(w)
                    cols = column(red_w), column(red_v)
                    dst, src = Point(lvl, cols[0]), Point(lvl, cols[1])
                    torus = dst.torus(src, red_v.level_n)
                    if torus:
                        (ai, bi), part, _ = expand_torus(field, torus)[0]
                        frame = (ai, part, 0, bi)
                    else:
                        frame = next(_level0_extras(field, dst.algebra(src)))
                        lower += 1
                    assert orbit_witness(lvl, red_v, red_w) == \
                        red_w.g.inverse() @ frame_matrix(field, frame) \
                        @ red_v.g
        assert lower

    def test_level_zero_extras_need_no_products(self, monkeypatch):
        """At D = 0 the extras are most of GL2(F_17); the kept ones are
        chosen by the orbit of infinity, with no `frame_product` call."""
        from btquot.hecke import StabDescriptor
        sd = stabilizer(BallVertex.base(FieldSpec(17)),
                        parse_level("0", FieldSpec(17)))
        calls = []
        product = StabDescriptor.frame_product

        def counted(self, x, y):
            calls.append(1)
            return product(self, x, y)

        monkeypatch.setattr(StabDescriptor, "frame_product", counted)
        gens = sd.generator_frames()
        assert calls == []
        assert len(gens) == 4 and sum(1 for fr in gens if fr[2]) == 1
        assert sd.unipotent_dim() == 0

    def test_doctored_torus_pairs_are_an_inconsistency(self, monkeypatch):
        """Torus pairs that are neither all of (F_q*)^2 nor the scalar line,
        here the line alpha = 2*beta, cannot come from the solver:
        `generator_frames` raises, and `stab`, given such a descriptor by
        its point (`hecke.point_stabilizer`), exits 3."""
        from btquot import hecke
        from btquot.cli import main
        from btquot.hecke import HeckeInconsistency, StabDescriptor
        v = BallVertex.standard(F3, 2)
        sd = stabilizer(v, parse_level("t", F3))
        assert len(sd.torus_pairs()) == 4
        line = StabDescriptor(v, sd.reduction, sd.level,
                              (2,) + sd.torus_map[1:] + (sd.m,), ())
        with pytest.raises(HeckeInconsistency, match="torus pairs"):
            line.generator_frames()
        stabilizer_of = hecke.point_stabilizer

        def forged_torus(point, v, red):
            stab = stabilizer_of(point, v, red)
            return StabDescriptor(v, red, stab.level,
                                  (2,) + stab.torus_map[1:] + (stab.m,),
                                  stab.kernel)

        monkeypatch.setattr(hecke, "point_stabilizer", forged_torus)
        assert main(["stab", "--p", "3", "--level", "t",
                     "--vertex", "r=-2;a=0"]) == 3


def levels_up_to(field, degree):
    """Every level of degree <= `degree` over `field`, D = 0 included:
    the products of powers of distinct monic irreducibles."""
    import itertools
    irreducibles = [p for d in range(1, degree + 1)
                    for low in itertools.product(range(field.q), repeat=d)
                    for p in [Polynomial(field, low + (1,))]
                    if p.is_irreducible()]

    def extend(start, left, factors):
        yield factors
        for i in range(start, len(irreducibles)):
            p = irreducibles[i]
            for mult in range(1, left // p.degree + 1):
                yield from extend(i + 1, left - mult * p.degree,
                                  factors + [(p, mult)])

    return [Level(field, factors) for factors in extend(0, degree, [])]


def frame_matrix(field, frame):
    """The frame element s = [[a, b], [c, d]] of the frame data
    (a, b, c, d): packed ints, b as its packed coefficient vector."""
    a, bvec, c, d = frame
    return Matrix2(Polynomial.constant(field, a), Polynomial(field, bvec),
                   Polynomial.constant(field, c),
                   Polynomial.constant(field, d))


def column(red):
    """The packed first column (a, c) of the reduction's g."""
    return red.rows[::2]


def reference_system(level, red_src, red_dst):
    """The congruence system of the pair of reductions as the elimination
    took it, from `Polynomial` arithmetic: the columns t^j*(-c_dst*c_src),
    j <= n, va = -c_dst*a_src and vc = a_dst*c_src, reduced mod N_D and
    padded to deg N_D."""
    modulus, n = level.modulus, red_src.level_n

    def vec(p):
        cs = (p % modulus).packed_coeffs
        return cs + (0,) * (modulus.degree - len(cs))

    (a, c), (a_dst, c_dst) = (red_src.g.a, red_src.g.c), (red_dst.g.a,
                                                          red_dst.g.c)
    columns = [vec(-(c_dst * c).shift(j)) for j in range(n + 1)]
    return columns, vec(-(c_dst * a)), vec(a_dst * c)


class TestClosedFormSolve:
    """The torus map of a pair of points, read off the parts of the two
    columns (`points.Point.torus`), equals the one the elimination of the
    witness system gives (`torus_blocks`), on every class of every level of
    small degree, as the pair (col, col), and on seeded pairs of vertices:
    some on lines alpha = mu*beta with mu != 1, -1, some with no witness,
    and some whose points have distinct e of equal degree."""

    LEVELS = ((FieldSpec(2), 4), (FieldSpec(3), 3), (FieldSpec(2, 2), 2),
              (FieldSpec(5), 2))

    @staticmethod
    def kind(level, red_src, red_dst):
        """Which case of the rule the system falls in: u = 0, gcd 1 or a
        proper e, and whether n < deg M."""
        from btquot.algebra import poly_gcd
        modulus = level.modulus
        u = red_dst.g.c * red_src.g.c % modulus
        e = poly_gcd(u, modulus) if u else modulus
        short = red_src.level_n < modulus.degree - e.degree
        return ("u = 0" if not u else "gcd 1" if e.degree == 0 else
                "proper e"), "n < deg M" if short else "n >= deg M"

    def test_closed_form_equals_elimination(self):
        from btquot import hecke
        from btquot.points import Point
        from btquot.quotient import build_quotient
        rng = random.Random(44)
        levels = [lvl for field, degree in self.LEVELS
                  for lvl in levels_up_to(field, degree)]
        levels.append(parse_level("t^2", FieldSpec(3, 2)))
        seen, systems, pairs = set(), 0, 0
        for level in levels:
            field = level.field
            Q = build_quotient(level, 2 * level.degree + 4)
            # each representative moved by a random member of H_D: a vertex
            # of the same class whose solutions are not those of a vertex
            # near the standard ray
            moved = [reduce_vertex(act(rand_member(field, level, rng),
                                       cls.representative))
                     for cls in Q.classes]
            for red in [cls.reduction for cls in Q.classes] + moved:
                old = torus_blocks(*reference_system(level, red, red),
                                   field)
                col, n = Point(level, column(red)), red.level_n
                mu, na, nc, m = col.torus(col, n)
                new = mu, na, nc, hecke._kernel_basis(field, m, n, n)
                assert new[0] == old[0] and new[3] == old[3], (level, red)
                if new[0] is None:
                    assert new[1:3] == old[1:3], (level, red)
                else:
                    seen.add("mu = 1")
                    assert new[0] == 1 and not any(
                        field.add(x, y) for x, y in zip(*new[1:3]))
                seen.update(self.kind(level, red, red))
                systems += 1
            by_level = {}
            for red in moved + [reduce_vertex(v) for cls in Q.classes
                                for v in [cls.representative,
                                          *cls.representative.neighbors()]]:
                by_level.setdefault(red.level_n, []).append(red)
            for reds in by_level.values():
                for _ in range(min(10, len(reds) ** 2)):
                    src, dst = rng.choice(reds), rng.choice(reds)
                    self.check_witness_pair(level, src, dst, seen)
                    pairs += 1
            # each representative moved by [[a, 0], [N_D, 1]] in H_D: a
            # witness on the line alpha = mu*beta for some mu != 1, -1
            for cls in Q.classes:
                for a in range(2, field.q):
                    mover = Matrix2(Polynomial.constant(field, a),
                                    Polynomial.zero(field), level.modulus,
                                    Polynomial.one(field))
                    image = reduce_vertex(act(mover, cls.representative))
                    self.check_witness_pair(level, cls.reduction, image, seen)
                    pairs += 1
        assert seen >= {"u = 0", "gcd 1", "proper e", "n < deg M", "mu = 1",
                        "mu != 1, -1", "no witness",
                        "distinct e of equal degree"}, seen
        assert systems > 1000 and pairs > 2000, (systems, pairs)

    def check_witness_pair(self, level, src, dst, seen):
        """The torus map of the system of (dst, src) against the reference:
        mu and the kernel, the particular solutions for all pairs, and the
        one for the pair a witness uses on a line."""
        from btquot import hecke
        from btquot.points import Point
        field, n = level.field, src.level_n
        columns, va, vc = reference_system(level, src, dst)
        old = torus_blocks(columns, va, vc, field)
        col_dst = Point(level, column(dst))
        col_src = Point(level, column(src))
        new = col_dst.torus(col_src, n)
        seen.update(self.kind(level, src, dst))
        e_dst, e_src = col_dst.parts[0], col_src.parts[0]
        if e_dst != e_src and len(e_dst) == len(e_src):
            seen.add("distinct e of equal degree")
        if old is None:
            seen.add("no witness")
            assert new is None, (level, src, dst)
            return
        mu, na, nc, m = new
        assert mu == old[0], (level, src, dst)
        if mu not in (None, 1, field.neg(1)):
            seen.add("mu != 1, -1")
        assert hecke._kernel_basis(field, m, n, n) == old[3], \
            (level, src, dst)
        # every pair's particular solution is the elimination's, which is 0
        # on the free columns
        assert expand_torus(field, (mu, na, nc, ())) == \
            expand_torus(field, old[:3] + ((),)), (level, src, dst)


class TestPackedPath:
    def test_solve_and_witness_make_no_polynomial(self, monkeypatch):
        """The congruence solves work on packed coefficient lists: a
        stabilizer read off its column's point, and the torus map of a pair
        of points and its level-0 algebra, create no `Polynomial`; the
        witness makes exactly its four entries."""
        from btquot.hecke import orbit_witness, point_stabilizer
        from btquot.points import Point
        made = []
        of, init = Polynomial.__dict__["_of"], Polynomial.__init__

        def counted_of(cls, field, cs):
            made.append(1)
            return of.__func__(cls, field, cs)

        def counted_init(self, *args):
            made.append(1)
            init(self, *args)

        rng = random.Random(43)
        cases = []
        for field in ORACLE_FIELDS:
            for text in ("0", "t", "t^2;t+1"):
                lvl = parse_level(text, field)
                for r in (-2, 0, 1, 3):
                    v = ball(field, r, {e: rng.randrange(field.q)
                                        for e in range(r - 3, r)})
                    w = act(rand_member(field, lvl, rng), v)
                    cases.append((lvl, v, reduce_vertex(v),
                                  reduce_vertex(w)))
        monkeypatch.setattr(Polynomial, "_of", classmethod(counted_of))
        monkeypatch.setattr(Polynomial, "__init__", counted_init)
        found = 0
        for lvl, v, red_v, red_w in cases:
            point = Point(lvl, column(red_v))
            point_stabilizer(point, v, red_v), point.algebra(point)
            assert not made
            dst = Point(lvl, column(red_w))
            assert dst.torus(point, red_v.level_n) or dst.algebra(point)
            assert not made
            found += orbit_witness(lvl, red_v, red_w) is not None
            assert len(made) == 4
            del made[:]
        assert found == len(cases)
