import functools
import itertools
import math
import random
import time

import pytest

from btquot.algebra import (INF, MAX_DEGREE, MAX_EXTENSION_Q, AlgebraError,
                            FieldElement, FieldSpec, LaurentFragment,
                            ParseError, Polynomial, RationalFunction,
                            _is_prime, expand_at_infinity, expand_pair,
                            format_polynomial, format_rational,
                            parse_fragment, parse_polynomial, parse_rational,
                            poly_gcd)

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F4 = FieldSpec(2, 2)
F5 = FieldSpec(5)
F8 = FieldSpec(2, 3)
F9 = FieldSpec(3, 2)
ALL_FIELDS = [F2, F3, F4, F5, FieldSpec(7), F8, F9]


def rand_poly(field, rng, max_deg=4):
    return Polynomial(field, [rng.randrange(field.q)
                              for _ in range(rng.randint(0, max_deg) + 1)])


def irreducible_by_trial_division(p):
    """Reference irreducibility test: no monic divisor of degree 1..d/2."""
    if p.degree < 1:
        return False
    field = p.field
    for d in range(1, p.degree // 2 + 1):
        for low in itertools.product(range(field.q), repeat=d):
            if (p % Polynomial(field, list(low) + [1])).is_zero():
                return False
    return True


class CoordinateField:
    """Reference arithmetic of F_q on packed ints through coordinate
    vectors in the polynomial basis of the field modulus: digit-wise sums,
    products reduced by the powers g^k (k >= s) of the generator, powers by
    repeated products and inverses as a^(q-2)."""

    def __init__(self, field):
        p, s = self.p, self.s = field.p, field.s
        self.q = field.q
        modulus = field.modulus or (0, 1)
        self.reductions = {}
        cur = [-c % p for c in modulus[:-1]]
        for k in range(s, 2 * s - 1):
            self.reductions[k] = cur
            top = cur[-1]
            cur = [(x + top * r) % p
                   for x, r in zip([0] + cur[:-1], self.reductions[s])]

    def coords(self, v):
        return [v // self.p ** i % self.p for i in range(self.s)]

    def pack(self, coords):
        return sum(x % self.p * self.p ** i for i, x in enumerate(coords))

    def add(self, a, b):
        return self.pack([x + y for x, y in zip(self.coords(a),
                                                self.coords(b))])

    def neg(self, a):
        return self.pack([-x for x in self.coords(a)])

    def mul(self, a, b):
        s = self.s
        conv = [0] * (2 * s - 1)
        for i, x in enumerate(self.coords(a)):
            for j, y in enumerate(self.coords(b)):
                conv[i + j] += x * y
        acc = conv[:s]
        for k in range(s, 2 * s - 1):
            acc = [x + conv[k] * r for x, r in zip(acc, self.reductions[k])]
        return self.pack(acc)

    def power(self, a, e):
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def inverse(self, a):
        return self.power(a, self.q - 2)


def rand_rational(field, rng, max_deg=4):
    num = rand_poly(field, rng, max_deg)
    while True:
        den = rand_poly(field, rng, max_deg)
        if not den.is_zero():
            return RationalFunction(num, den)


class TestFieldSpec:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(AlgebraError):
            FieldSpec(6)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(AlgebraError):
            FieldSpec(2, 2, modulus=(1, 0, 1))  # g^2+1 = (g+1)^2 over F_2

    def test_builtin_moduli(self):
        assert F4.q == 4 and F8.q == 8 and F9.q == 9

    def test_large_prime_accepted(self):
        F = FieldSpec(101)
        assert F.mul(57, F.inv(57)) == 1

    def test_packed_encoding(self):
        # over F_4 the packed integer 2 is the generator g
        g = F4.element(2)
        assert F4.basis == (1, 2) and F9.basis == (1, 3) and F5.basis == (1,)
        assert g.to_int() == 2
        assert g * g == F4.element(F4.add(2, 1))

    def test_prime_field_modulus_is_validated(self):
        for modulus in ((1, 0, 1), (1, 2), (1,)):
            with pytest.raises(AlgebraError):
                FieldSpec(3, 1, modulus=modulus)
        assert FieldSpec(3, 1, modulus=(1, 1)) == F3

    @pytest.mark.parametrize("p,degrees", [
        (2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2,)), (7, (2,))])
    def test_accepts_exactly_the_irreducible_moduli(self, p, degrees):
        prime = FieldSpec(p)
        for s in degrees:
            for low in itertools.product(range(p), repeat=s):
                modulus = low + (1,)
                expected = irreducible_by_trial_division(
                    Polynomial(prime, modulus))
                try:
                    FieldSpec(p, s, modulus=modulus)
                    accepted = True
                except AlgebraError:
                    accepted = False
                assert accepted == expected, modulus

    def test_large_prime_field_builds_no_table(self):
        t0 = time.perf_counter()
        F = FieldSpec(1000003)
        assert time.perf_counter() - t0 < 0.1
        a = 123456
        assert F.mul(a, F.inv(a)) == 1
        assert F.mul(a, 1000002) == F.neg(a) == 1000003 - a

    def test_extension_field_cap(self):
        F = FieldSpec(2, 10, modulus=(1, 0, 0, 1) + (0,) * 6 + (1,))
        assert F.q == MAX_EXTENSION_Q
        g = F.basis[1]
        assert functools.reduce(F.mul, [g] * (F.q - 1)) == 1
        assert F.mul(g, F.inv(g)) == 1
        with pytest.raises(AlgebraError, match="q=10201"):
            FieldSpec(101, 2, modulus=(99, 0, 1))
        with pytest.raises(AlgebraError, match="q=2048"):
            FieldSpec(2, 11)
        t0 = time.perf_counter()
        with pytest.raises(AlgebraError, match="q=2\\^1000000000"):
            FieldSpec(2, 10 ** 9)
        assert time.perf_counter() - t0 < 0.1


class TestPrimality:
    """`_is_prime` is Miller-Rabin with the first 13 primes as bases,
    exact below 3.3e24, and refuses larger numbers."""

    def test_equals_trial_division(self):
        def by_trial_division(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(10 ** 4 + 1):
            assert _is_prime(n) == by_trial_division(n), n

    def test_carmichael_numbers_and_strong_pseudoprimes(self):
        """Carmichael numbers fool the Fermat test to every coprime base;
        the two strong pseudoprimes fool Miller-Rabin to the first 9 and
        the first 12 prime bases."""
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                      29341, 41041, 46657, 52633, 62745, 63973, 75361,
                      101101, 115921, 126217, 162401, 172081, 188461,
                      252601, 278545, 294409, 314821, 334153, 340561,
                      399001, 410041, 449065, 488881, 512461, 9746347772161]
        strong = {3825123056546413051: 149491,
                  318665857834031151167461: 399165290221}
        for n in carmichael:
            assert all(pow(a, n - 1, n) == 1 for a in range(2, 50)
                       if math.gcd(a, n) == 1), n
            assert not _is_prime(n), n
        for n, factor in strong.items():
            assert n % factor == 0 and not _is_prime(n), n

    def test_large_primes_answer_and_beyond_the_bound_raise(self):
        t0 = time.perf_counter()
        for p in (1000000000000000003, 2 ** 61 - 1, 2 ** 31 - 1):
            assert _is_prime(p) and FieldSpec(p).q == p
        assert not _is_prime(2 ** 61 + 1)
        for p in (3317044064679887385961981, 2 ** 89 - 1, 10 ** 4000):
            with pytest.raises(AlgebraError, match="primality is decided "
                               "below 3317044064679887385961981"):
                FieldSpec(p)
        assert time.perf_counter() - t0 < 1.0


class TestPackedArithmetic:
    """Each F_q operation is one modular operation (prime fields) or one
    table lookup (extension fields) on packed ints; the coordinate
    arithmetic is the reference."""

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
    def test_field_ops_equal_coordinate_arithmetic(self, field):
        """`FieldSpec.add`, `neg`, `mul` and `inv`, the operations the
        package computes with, and the handle product `*`, on every pair;
        inv(0) raises."""
        ref = CoordinateField(field)
        for a, b in itertools.product(range(field.q), repeat=2):
            assert field.add(a, b) == ref.add(a, b), (a, b)
            assert field.mul(a, b) == ref.mul(a, b), (a, b)
            product = field.element(a) * field.element(b)
            assert product is field.element(ref.mul(a, b)), (a, b)
        for a in range(field.q):
            assert field.neg(a) == ref.neg(a), a
            if a:
                assert field.inv(a) == ref.inverse(a), a
        with pytest.raises(AlgebraError, match="inversion of zero"):
            field.inv(0)

    def test_polynomial_key_is_the_packed_coefficients(self):
        rng = random.Random(11)
        for field in ALL_FIELDS:
            for _ in range(40):
                p = rand_poly(field, rng, max_deg=6)
                assert p.key() == tuple(c.to_int() for c in p.coeffs)
                assert all(isinstance(c, FieldElement) for c in p.coeffs)

    def test_equal_fields_mix(self):
        A, B = FieldSpec(3, 2), FieldSpec(3, 2)
        assert A is not B and A == B and hash(A) == hash(B)
        for i in range(A.q):
            x, y = A.element(i), B.element(i)
            assert x == y and hash(x) == hash(y)
            assert x * B.element(5) == A.element(i) * A.element(5)
        pa, pb = Polynomial(A, [1, 2, 3]), Polynomial(B, [1, 2, 3])
        assert pa == pb and hash(pa) == hash(pb)
        assert pa * pb == pa * pa and (pa + pb) - pb == pa
        assert divmod(pa * pb, pb) == (pa, Polynomial.zero(A))
        with pytest.raises(AlgebraError):
            F3.element(1) * F9.element(1)
        assert F3.element(1) != F9.element(1)


class TestElementEquality:
    def test_int_equals_only_the_packed_value(self):
        one = F2.element(1)
        assert one == 1 and 1 == one
        assert F9.element(5) == 5
        for n in (0, 2, 5, -1, 10 ** 20):
            assert not one == n and one != n
        assert F3.element(2) != -1

    def test_hash_is_the_hash_of_the_packed_value(self):
        for field in ALL_FIELDS:
            for x in map(field.element, range(field.q)):
                assert hash(x) == hash(x.to_int())
        assert 1 in {F2.element(1)} and F2.element(1) in {1}
        assert {F9.element(5): "g+2"}[5] == "g+2"


class TestFieldOps:
    def test_char_two(self):
        assert F2.add(1, 1) == 0

    def test_f4_generator_square(self):
        g = F4.basis[1]
        assert F4.mul(g, g) == F4.add(g, 1)

    def test_f5_inverse(self):
        assert F5.inv(2) == 3

    def test_inversion_of_zero_raises(self):
        with pytest.raises(AlgebraError):
            F3.inv(0)

    def test_field_axioms_sampled(self):
        rng = random.Random(1)
        cases = 0
        for field in ALL_FIELDS:
            add, mul = field.add, field.mul
            for _ in range(30):
                a, b, c = (rng.randrange(field.q) for _ in range(3))
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert add(a, field.neg(a)) == 0
                if a:
                    assert mul(a, field.inv(a)) == 1
                cases += 1
        assert cases >= 200

    def test_vector_ops_are_the_scalar_ops_entrywise(self):
        rng = random.Random(4)
        for field in ALL_FIELDS:
            for _ in range(20):
                c = rng.randrange(field.q)
                u, v = (tuple(rng.randrange(field.q) for _ in range(5))
                        for _ in range(2))
                assert field.vadd(u, v) == tuple(map(field.add, u, v))
                assert field.vscale(c, v) == tuple(field.mul(c, x)
                                                   for x in v)
            assert field.vadd((), ()) == field.vscale(1, ()) == ()

    def test_primitive_is_the_least_generator_and_logs_invert_it(self):
        for field in ALL_FIELDS + [FieldSpec(101), FieldSpec(3, 3,
                                                             (1, 2, 0, 1))]:
            def order(w):
                x, k = w, 1
                while x != 1:
                    x, k = field.mul(x, w), k + 1
                return k

            g = field.primitive
            assert g == min(w for w in range(1, field.q)
                            if order(w) == field.q - 1)
            assert sorted(field.logs) == list(range(1, field.q))
            assert sorted(field.logs.values()) == list(range(field.q - 1))
            for x, k in field.logs.items():
                assert functools.reduce(field.mul, [g] * k, 1) == x
        assert F2.primitive == 1 and F3.primitive == 2
        assert F4.primitive == 2 and F9.primitive == 4


class TestPolynomial:
    def test_canonical_strip(self):
        p = Polynomial(F2, [1, 1, 0, 0])
        assert p.degree == 1

    def test_divmod_roundtrip(self):
        """Random divisors, and monomials c*t^k, which divide by a shift."""
        rng, mono_rng = random.Random(2), random.Random(5)
        for field in (F3, F4):
            for _ in range(50):
                a = rand_poly(field, rng)
                monomial = Polynomial(field, [0] * mono_rng.randrange(6) + [
                    mono_rng.randrange(1, field.q)])
                for b in (rand_poly(field, rng), monomial):
                    if b.is_zero():
                        continue
                    q, r = divmod(a, b)
                    assert q * b + r == a
                    assert r.is_zero() or r.degree < b.degree

    def test_gcd_divides(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = rand_poly(F3, rng), rand_poly(F3, rng)
            g = poly_gcd(a, b)
            if g.is_zero():
                assert a.is_zero() and b.is_zero()
            else:
                assert (a % g).is_zero() and (b % g).is_zero()

    def test_irreducibility(self):
        assert parse_polynomial("t^2+t+1", F2).is_irreducible()
        assert not parse_polynomial("t^2+1", F2).is_irreducible()
        assert parse_polynomial("t^2+1", F3).is_irreducible()

    @pytest.mark.parametrize("field,max_deg", [
        (F2, 5), (F3, 5), (F4, 3), (F5, 3), (F9, 3), (F8, 6), (F9, 6)])
    def test_ben_or_equals_trial_division(self, field, max_deg):
        """Every monic polynomial of a degree with at most 729 of them,
        and 40 sampled ones of each larger degree."""
        rng = random.Random(8)
        for d in range(max_deg + 1):
            lows = (itertools.product(range(field.q), repeat=d)
                    if field.q ** d <= 729 else
                    [[rng.randrange(field.q) for _ in range(d)]
                     for _ in range(40)])
            for low in lows:
                p = Polynomial(field, list(low) + [1])
                expected = irreducible_by_trial_division(p)
                assert p.is_irreducible() == expected, p

    @pytest.mark.parametrize("p", [31, 61])
    def test_ben_or_past_the_spread(self, p):
        """Over F_31 and F_61 degree 2 takes the spread and degree 4 at
        q = 61 square and multiply; both equal trial division, on sampled
        polynomials and on products of two quadratics."""
        field, rng = FieldSpec(p), random.Random(p)
        polys = [Polynomial(field, [rng.randrange(p) for _ in range(d)] + [1])
                 for d in (2, 3, 4) for _ in range(6)]
        polys += [polys[i] * polys[i + 1] for i in range(0, 6, 2)]
        for poly in polys:
            assert poly.is_irreducible() == \
                irreducible_by_trial_division(poly), poly
        assert any(poly.is_irreducible() for poly in polys)

    def test_non_monic_and_degenerate(self):
        assert parse_polynomial("2*t^2+2", F3).is_irreducible()
        assert not parse_polynomial("2*t^2+1", F3).is_irreducible()
        assert not Polynomial.zero(F3).is_irreducible()
        assert not Polynomial.one(F3).is_irreducible()


class TestValuation:
    def test_uniformizer(self):
        t = RationalFunction(Polynomial.t(F2))
        assert t.valuation() == -1

    def test_pi_squared(self):
        assert RationalFunction.t_power(F2, -2).valuation() == 2

    def test_mixed(self):
        f = parse_rational("(t+1)/t^2", F2)
        assert f.valuation() == 1

    def test_zero(self):
        assert RationalFunction.zero(F2).valuation() == INF

    def test_multiplicative_and_ultrametric(self):
        rng = random.Random(4)
        cases = 0
        for field in (F2, F3, F5):
            for _ in range(80):
                f = rand_rational(field, rng)
                g = rand_rational(field, rng)
                assert (f * g).valuation() == f.valuation() + g.valuation() \
                    or (f * g).is_zero()
                s = f + g
                assert s.valuation() >= min(f.valuation(), g.valuation())
                cases += 1
        assert cases >= 200


class TestExpansion:
    def test_exact_polynomial(self):
        frag = expand_at_infinity(RationalFunction(Polynomial.t(F2)), 3)
        assert frag.key() == (3, (-1, 1))

    def test_geometric_series(self):
        t = RationalFunction(Polynomial.t(F2))
        frag = expand_at_infinity(RationalFunction.one(F2) / (t - 1), 4)
        assert dict(frag.packed_terms) == {1: 1, 2: 1, 3: 1}

    def test_zero(self):
        assert expand_at_infinity(RationalFunction.zero(F2), 0).is_zero()

    def test_remainder_valuation_property(self):
        rng = random.Random(5)
        cases = 0
        for field in (F2, F3, F4):
            for _ in range(70):
                f = rand_rational(field, rng)
                cutoff = rng.randint(-6, 6)
                frag = expand_at_infinity(f, cutoff)
                assert all(e < cutoff for e, _ in frag.packed_terms)
                diff = f - frag.to_rational()
                assert diff.valuation() >= cutoff
                cases += 1
        assert cases >= 200

    def test_pair_equals_reduced_expansion(self):
        """An unreduced pair num/den, a common factor and a non-monic
        denominator, among them the monomials c*t^K with c != 1, expands
        as its reduced rational function does."""
        rng = random.Random(9)
        monomials = 0
        for field in (F2, F3, F4, F5, F9):
            for trial in range(40):
                num = rand_poly(field, rng, 5)
                if trial % 2:
                    den = Polynomial(field, [0] * rng.randint(0, 4)
                                     + [rng.randrange(1, field.q)])
                    monomials += den.packed_coeffs[-1] != 1
                else:
                    den = rand_poly(field, rng, 4)
                    if den.is_zero():
                        continue
                common = rand_poly(field, rng, 2)
                if common:
                    num, den = num * common, den * common
                cutoff = rng.randint(-8, 12)
                assert expand_pair(num, den, cutoff) == expand_at_infinity(
                    RationalFunction(num, den), cutoff)
        assert monomials >= 40


def rand_fragment(field, rng):
    cutoff = rng.randint(-10, 25)
    lo = cutoff - rng.randint(0, 20)
    return LaurentFragment(field, {e: rng.randrange(field.q)
                                   for e in range(lo, cutoff)}, cutoff)


class TestFragmentArithmetic:
    FIELDS = (F2, F3, F4, F5, F9)

    def test_to_rational_equals_term_sum(self):
        rng = random.Random(7)
        for field in self.FIELDS:
            for _ in range(24):
                frag = rand_fragment(field, rng)
                ref = RationalFunction.zero(field)
                for e, c in frag.packed_terms:
                    ref = ref + RationalFunction.t_power(field, -e) * \
                        RationalFunction.constant(field, c)
                out = frag.to_rational()
                assert out.key() == ref.key()
                assert out.num == ref.num and out.den == ref.den


class TestPolynomialPart:
    """A fragment holds no term at or above its cutoff."""

    def test_cutoff_enforced(self):
        with pytest.raises(AlgebraError):
            LaurentFragment(F2, {2: 1}, 2)


class TestParsing:
    def test_basic_polynomials(self):
        assert parse_polynomial("t^2+t+1", F2).key() == (1, 1, 1)
        assert parse_polynomial("3*t^4+2", F5).key() == (2, 0, 0, 0, 3)

    def test_rational(self):
        r = parse_rational("(t+1)/t^2", F2)
        assert r.num.key() == (1, 1) and r.den.key() == (0, 0, 1)

    def test_subtraction(self):
        assert parse_polynomial("t-1", F3) == parse_polynomial("t+2", F3)

    def test_coefficient_out_of_range(self):
        with pytest.raises(ParseError):
            parse_polynomial("7*t", F5)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_polynomial("t^^2", F2)
        assert "position" in str(ei.value)

    def test_whitespace_ignored(self):
        assert parse_polynomial(" t ^ 2 + 1 ", F3) == \
            parse_polynomial("t^2+1", F3)

    def test_print_parse_round_trip(self):
        rng = random.Random(7)
        for field in ALL_FIELDS:
            for _ in range(30):
                p = rand_poly(field, rng)
                assert parse_polynomial(format_polynomial(p), field) == p
                f = rand_rational(field, rng)
                assert parse_rational(format_rational(f), field) == f

    def test_fragment_round_trip(self):
        frag = LaurentFragment(F4, {-2: 3, 1: 2}, 2)
        text = "3*s^-2+2*s^1"
        assert parse_fragment(text, F4, 2) == frag


class TestParserPinning:
    """What the parsers return and raise, pinned term by term: sums of
    repeated and signed terms, the print-parse round trip on every field,
    and the error class and message of each rejected fragment."""

    def test_round_trip_on_every_field(self):
        rng = random.Random(19)
        for field in ALL_FIELDS:
            for _ in range(40):
                p = rand_poly(field, rng, max_deg=9)
                assert parse_polynomial(format_polynomial(p), field) == p
            zero = Polynomial.zero(field)
            assert parse_polynomial(format_polynomial(zero), field) == zero

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: "q%d" % f.q)
    def test_repeated_and_signed_terms(self, field):
        one, t = Polynomial.one(field), Polynomial.t(field)
        two = Polynomial.constant(field, 2 % field.q)
        cases = [("t+t", t + t), ("-t^2+1", -(t * t) + one),
                 ("t^2+t^2", t * t + t * t), ("-t-t-t", -t - t - t),
                 ("1+t^3-1", t * t * t), ("t^2-t^2", Polynomial.zero(field))]
        if field.q > 2:
            cases.append(("2*t-t", two * t - t))
        for text, expected in cases:
            assert parse_polynomial(text, field) == expected, text

    def test_exponent_cap(self):
        """An exponent above MAX_DEGREE is refused before its dense list
        is allocated."""
        assert parse_polynomial("t^%d" % MAX_DEGREE, F2).degree == MAX_DEGREE
        t0 = time.perf_counter()
        for text in ("t^%d" % (MAX_DEGREE + 1), "t^1000000000000+1",
                     "1+t^10000000000000000000000"):
            with pytest.raises(ParseError, match="above the degree cap %d"
                               % MAX_DEGREE):
                parse_polynomial(text, F2)
        assert time.perf_counter() - t0 < 1.0

    def test_repeated_terms_over_f2(self):
        t, one = Polynomial.t(F2), Polynomial.one(F2)
        assert parse_polynomial("t+t", F2) == Polynomial.zero(F2)
        assert parse_polynomial("t^2+t^2", F2) == Polynomial.zero(F2)
        assert parse_polynomial("-t^2+1", F2) == t * t + one
        assert parse_polynomial("1*t-t+1", F2) == one

    @pytest.mark.parametrize("text,cutoff,cls,message", [
        ("1*s^1+2*s^1", 3, ParseError,
         "repeated exponent 1 at position 0 in '1*s^1+2*s^1'"),
        ("0*s^1+1*s^1", 3, ParseError,
         "repeated exponent 1 at position 0 in '0*s^1+1*s^1'"),
        ("1*s^-1+0*s^-1", 3, ParseError,
         "repeated exponent -1 at position 0 in '1*s^-1+0*s^-1'"),
        ("1*s^5+1*s^5", 3, ParseError,
         "repeated exponent 5 at position 0 in '1*s^5+1*s^5'"),
        ("1*s^5+2*s^4", 3, AlgebraError, "exponent 5 not below cutoff 3"),
        ("1*s^1+2*s^4+1*s^5", 3, AlgebraError,
         "exponent 4 not below cutoff 3"),
        ("0*s^7+1*s^9", 3, AlgebraError, "exponent 9 not below cutoff 3"),
        ("1*s^3", 3, AlgebraError, "exponent 3 not below cutoff 3"),
        ("1*s^5+1*s^x", 3, ParseError,
         "bad exponent in '1*s^x' at position 0 in '1*s^5+1*s^x'"),
        ("4*s^1", 3, ParseError,
         "coefficient 4 out of range for q=4 at position 0 in '4*s^1'"),
    ])
    def test_fragment_errors(self, text, cutoff, cls, message):
        with pytest.raises(AlgebraError) as ei:
            parse_fragment(text, F4, cutoff)
        assert type(ei.value) is cls
        assert str(ei.value) == message

    def test_zero_coefficient_terms_are_dropped(self):
        for text, cutoff, terms in (("0*s^7+1*s^1", 3, ((1, 1),)),
                                    ("0*s^1", 3, ()), ("0*s^7", 3, ()),
                                    ("0*s^-2+0*s^1", 0, ()),
                                    ("2*s^1+0*s^-3+3*s^-2", 2,
                                     ((-2, 3), (1, 2)))):
            frag = parse_fragment(text, F4, cutoff)
            assert frag.packed_terms == terms and frag.cutoff == cutoff
            assert frag == LaurentFragment(F4, dict(terms), cutoff)

    @pytest.mark.parametrize("text,message", [
        ("", "empty polynomial at position 0 in ''"),
        ("t^^2", "bad exponent '^^2' at position 0 in 't^^2'"),
        ("t+", "dangling sign at position 1 in 't+'"),
        ("t--t", "empty term at position 2 in 't--t'"),
        ("3*", "missing term body at position 0 in '3*'"),
        ("*t", "bad coefficient '' at position 0 in '*t'"),
        ("2*3", "bad term '2*3' at position 0 in '2*3'"),
        ("1*2*t", "expected 't' at position 0 in '1*2*t'"),
        ("t+7", "coefficient 7 out of range for q=5 at position 2 in 't+7'"),
    ])
    def test_polynomial_errors(self, text, message):
        with pytest.raises(ParseError) as ei:
            parse_polynomial(text, F5)
        assert str(ei.value) == message
