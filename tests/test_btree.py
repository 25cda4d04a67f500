import random

import pytest

from btquot.algebra import (AlgebraError, FieldSpec, LaurentFragment,
                            Polynomial, RationalFunction, expand_at_infinity)
from btquot.btree import (BallVertex, Matrix2, TreeError, _rows_inverse,
                          _rows_product, act, canonicalize, distance,
                          distance_bfs, distance_invariant_factors)
from btquot.hecke import parse_level

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F5 = FieldSpec(5)
F9 = FieldSpec(3, 2)


def ball(field, r, terms):
    return BallVertex(field, r, LaurentFragment(field, terms, r))


def rand_vertex(field, rng, rmin=-4, rmax=4, span=4):
    r = rng.randint(rmin, rmax)
    terms = {e: rng.randrange(field.q) for e in range(r - span, r)}
    return ball(field, r, {e: c for e, c in terms.items() if c})


def rand_matrix(field, rng, max_deg=2):
    while True:
        m = Matrix2(*(
            Polynomial(field, [rng.randrange(field.q)
                               for _ in range(max_deg + 1)])
            for _ in range(4)))
        if not m.det().is_zero():
            return m


class TestCanonicalize:
    def test_identity_basis(self):
        v = canonicalize(Matrix2.identity(F2))
        assert v == BallVertex.base(F2)

    def test_skewed_basis(self):
        # columns (t, 1), (1, 0): already of the ball shape with center t
        t = RationalFunction(Polynomial.t(F2))
        one = RationalFunction.one(F2)
        zero = RationalFunction.zero(F2)
        v = canonicalize(Matrix2(t, one, one, zero))
        assert v == ball(F2, 0, {-1: 1})
        assert distance(BallVertex.base(F2), v) == 2

    def test_normal_form_passthrough(self):
        a = RationalFunction.t_power(F2, -1)  # 1/t
        m = Matrix2(a, RationalFunction.t_power(F2, -2),
                    RationalFunction.one(F2), RationalFunction.zero(F2))
        assert canonicalize(m) == ball(F2, 2, {1: 1})

    def test_singular_rejected(self):
        one = RationalFunction.one(F2)
        with pytest.raises(TreeError):
            canonicalize(Matrix2(one, one, one, one))


class TestAction:
    def test_translation_shifts_center(self):
        tau_t = Matrix2.translation(Polynomial.t(F2))
        assert act(tau_t, ball(F2, 2, {-1: 1})) == ball(F2, 2, {})

    def test_involution_on_centered_balls(self):
        inv = Matrix2.involution(F2)
        assert act(inv, ball(F2, 3, {})) == ball(F2, -3, {})

    def test_involution_off_zero(self):
        # center s with 0 not in the ball: radius exponent drops by 2 nu(s)
        inv = Matrix2.involution(F3)
        v = ball(F3, 2, {1: 1})  # s = pi
        image = act(inv, v)
        assert image.r == 0
        assert image.center.to_rational() == \
            expand_at_infinity(RationalFunction(Polynomial.t(F3)), 0)\
            .to_rational()

    def test_identity_fixes(self):
        rng = random.Random(11)
        for _ in range(20):
            v = rand_vertex(F3, rng)
            assert act(Matrix2.identity(F3), v) == v

    def test_singular_rejected(self):
        zero = RationalFunction.zero(F2)
        one = RationalFunction.one(F2)
        with pytest.raises(TreeError):
            act(Matrix2(one, one, zero, zero), BallVertex.base(F2))


class TestNeighbors:
    def test_base_vertex_q2(self):
        nbs = BallVertex.base(F2).neighbors()
        assert nbs[0] == ball(F2, -1, {})
        assert nbs[1] == ball(F2, 1, {})
        assert nbs[2] == ball(F2, 1, {0: 1})

    def test_valency(self):
        rng = random.Random(12)
        for field in (F2, F3, F4):
            for _ in range(10):
                v = rand_vertex(field, rng)
                nbs = v.neighbors()
                assert len(nbs) == field.q + 1
                assert len({u.key() for u in nbs}) == field.q + 1
                assert all(distance(v, u) == 1 for u in nbs)

    def test_parent_truncates(self):
        v = ball(F2, 2, {1: 1})  # B_{1/t}^{|2|}
        assert v.parent() == ball(F2, 1, {})

    @pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (2, 3), (3, 2)])
    def test_listed_in_key_order(self, p, s):
        field = FieldSpec(p, s)
        rng = random.Random(1000 * p + s)
        for _ in range(40):
            nbs = rand_vertex(field, rng, rmin=-8, rmax=12).neighbors()
            assert nbs == sorted(nbs, key=lambda u: u.key())


class TestDistance:
    def test_self(self):
        v = ball(F3, 1, {0: 2})
        assert distance(v, v) == 0

    def test_nested(self):
        for n in range(5):
            assert distance(BallVertex.base(F2), ball(F2, -n, {})) == n

    def test_offset(self):
        assert distance(BallVertex.base(F2), ball(F2, 2, {1: 1})) == 2

    def test_three_way_agreement(self):
        rng = random.Random(13)
        for _ in range(60):
            field = (F2, F3)[rng.randrange(2)]
            v = rand_vertex(field, rng, rmin=-3, rmax=3, span=3)
            w = v
            for _ in range(rng.randint(0, 5)):
                w = rng.choice(w.neighbors())
            d = distance(v, w)
            assert d == distance_invariant_factors(v, w)
            assert d == distance_bfs(v, w, max_depth=6)


class TestGroupLaws:
    def test_isometry_and_composition(self):
        rng = random.Random(14)
        for _ in range(40):
            field = (F2, F3)[rng.randrange(2)]
            g = rand_matrix(field, rng)
            h = rand_matrix(field, rng)
            v = rand_vertex(field, rng)
            w = rand_vertex(field, rng)
            assert distance(act(g, v), act(g, w)) == distance(v, w)
            assert act(g @ h, v) == act(g, act(h, v))

    def test_parity_preserved_for_even_determinant_valuation(self):
        rng = random.Random(15)
        for _ in range(40):
            g = rand_matrix(F3, rng)
            v = rand_vertex(F3, rng)
            if g.det().valuation() % 2 == 0:
                assert act(g, v).parity() == v.parity()
            else:
                assert act(g, v).parity() != v.parity()


def rand_poly(field, rng, max_deg):
    return Polynomial(field, [rng.randrange(field.q)
                              for _ in range(rng.randint(0, max_deg + 1))])


def move_cases():
    """Seeded (g, v) pairs for `act`: g a product of H_D generators
    (level t), a constant diagonal with alpha != delta, a pure tau_f or
    [[1, 0], [N_D, 1]]; v with r in [-6, 12], or deep with r >= 16."""
    rng = random.Random(41)
    one = Polynomial.one
    out = []
    for field in (F2, F3, F4, F5, F9):
        modulus = parse_level("t", field).modulus
        lower = Matrix2(one(field), Polynomial.zero(field), modulus,
                        one(field))
        units = range(1, field.q)
        for i in range(44):
            kind = i % 4
            if kind == 0:
                g = Matrix2.identity(field)
                for _ in range(rng.randint(2, 6)):
                    step = rng.randrange(3)
                    if step == 0:
                        m = Matrix2.translation(rand_poly(field, rng, 2))
                    elif step == 1:
                        m = Matrix2(one(field), Polynomial.zero(field),
                                    modulus * rand_poly(field, rng, 1),
                                    one(field))
                    else:
                        m = Matrix2.diagonal(field, rng.choice(units),
                                             rng.choice(units))
                    g = m @ g
            elif kind == 1:
                alpha = rng.choice(units)
                delta = rng.choice([u for u in units if u != alpha]
                                   if field.q > 2 else units)
                g = Matrix2.diagonal(field, alpha, delta)
            elif kind == 2:
                g = Matrix2.translation(rand_poly(field, rng, 4))
            else:
                g = lower
            if i % 11 == 10:
                r = rng.randint(16, 30)
            else:
                r = rng.randint(-6, 12)
            v = rand_vertex(field, rng, rmin=r, rmax=r,
                            span=rng.randint(0, 12))
            out.append((g, v))
    return out


class TestBallMove:
    """The (g, v) sample that `TestPolynomialMatrix` moves with `act`."""

    def test_sample_shape(self):
        cases = move_cases()
        assert len(cases) >= 200
        assert {v.field.q for _, v in cases} == {2, 3, 4, 5, 9}
        assert sum(v.r >= 16 for _, v in cases) >= 15
        assert any(g.a != g.d and g.c.is_zero() and g.b.is_zero()
                   for g, _ in cases)


class TestPolynomialMatrix:
    def test_act_equals_act_of_lift(self):
        """A matrix over F_q[t] acts as its copy over F_q(t) does."""
        cases = move_cases()
        assert len(cases) >= 100
        for g, v in cases:
            lift = Matrix2(*(RationalFunction(x) for x in g.entries()))
            assert act(g, v) == act(lift, v), (g, v)

    def test_inverse_is_the_scaled_adjugate(self):
        for g, _ in move_cases():
            inv = g.inverse()
            assert all(isinstance(x, Polynomial) for x in inv.entries())
            assert inv @ g == Matrix2.identity(g.field)

    def test_inverse_rejects_non_constant_determinant(self):
        t = Polynomial.t(F3)
        one = Polynomial.one(F3)
        zero = Polynomial.zero(F3)
        for g in (Matrix2(t, zero, zero, one), Matrix2(one, t, t, one),
                  Matrix2(one, one, one, one)):
            with pytest.raises(TreeError):
                g.inverse()


class TestPackedRows:
    """`_rows_product` and `_rows_inverse`, the 2x2 products and inverses
    on packed rows that check the presentation, give the `key()` of the
    `Matrix2.__matmul__` product and of `Matrix2.inverse`."""

    @pytest.mark.parametrize("field", [F2, F3, F4, F9],
                             ids=["q2", "q3", "q4", "q9"])
    def test_equal_the_matrix_arithmetic(self, field):
        rng = random.Random(field.q)
        for _ in range(60):
            x, y = (rand_matrix(field, rng, rng.randint(0, 3))
                    for _ in range(2))
            rows = _rows_product(field, x.key(), y.key())
            assert tuple(map(tuple, rows)) == (x @ y).key(), (x, y)
            assert Matrix2.of_rows(field, rows) == x @ y
        units = [g for g, v in move_cases() if v.field is field]
        assert len(units) == 44
        for g in units:
            rows = _rows_inverse(field, g.key())
            assert tuple(map(tuple, rows)) == g.inverse().key(), g
            assert _rows_product(field, rows, g.key()) == [[1], [], [], [1]]

    def test_inverse_rejects_non_constant_determinant(self):
        t = Polynomial.t(F3)
        one = Polynomial.one(F3)
        zero = Polynomial.zero(F3)
        for g in (Matrix2(t, zero, zero, one), Matrix2(one, t, t, one),
                  Matrix2(one, one, one, one)):
            with pytest.raises(AlgebraError, match="not a unit"):
                _rows_inverse(F3, g.key())


class TestVertexText:
    def test_round_trip(self):
        rng = random.Random(17)
        for field in (F2, F3, F4):
            for _ in range(25):
                v = rand_vertex(field, rng)
                assert BallVertex.from_text(v.to_text(), field) == v

    def test_documented_format(self):
        v = BallVertex.from_text("r=2;a=1*s^-1", F2)
        assert v == ball(F2, 2, {-1: 1})
        assert v.to_text() == "r=2;a=1*s^-1"

    def test_zero_center(self):
        assert BallVertex.base(F3).to_text() == "r=0;a=0"

    def test_bad_text(self):
        with pytest.raises(TreeError):
            BallVertex.from_text("q=2;a=0", F2)
