"""Exact arithmetic over small finite fields F_q, the polynomial ring F_q[t],
and the rational function field F_q(t) with its place at infinity.

Conventions used throughout the package:

  * the valuation at infinity is nu(f) = deg(den) - deg(num), so nu(t) = -1
    and the uniformizer is pi = 1/t;
  * a finite tail of the pi-expansion of an element of F_q((1/t)) is stored
    as a LaurentFragment (a map pi-exponent -> coefficient, all exponents
    strictly below a cutoff).

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math

INF = math.inf


class AlgebraError(ValueError):
    pass


class ParseError(AlgebraError):
    def __init__(self, message, text, pos):
        super().__init__("%s at position %d in %r" % (message, pos, text))
        self.pos = pos
        self.text = text


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# base-p polynomial helpers for modulus validation (coefficients are plain
# ints mod p, little-endian)

def _modp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _modp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _modp_trim(out)


def _modp_rem(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    while len(a) - 1 >= db and a:
        f = (a[-1] * inv_lb) % p
        sh = len(a) - 1 - db
        for i, y in enumerate(b):
            a[sh + i] = (a[sh + i] - f * y) % p
        _modp_trim(a)
    return a


def _modp_irreducible(coeffs, p):
    """Trial factorization; fine for the degrees (<= 4) used here."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        # all monic divisor candidates of degree d
        stack = [[]]
        for _ in range(d):
            stack = [c + [x] for c in stack for x in range(p)]
        for low in stack:
            cand = low + [1]
            if not _modp_rem(coeffs, cand, p):
                return False
    return True


_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),      # g^2 + g + 1
    (2, 3): (1, 1, 0, 1),   # g^3 + g + 1
    (3, 2): (1, 0, 1),      # g^2 + 1
}


class FieldSpec:
    """The field F_q, q = p^s, with elements in the polynomial basis of a
    fixed monic irreducible modulus of degree s over F_p (ignored for s=1).
    """

    def __init__(self, p, s=1, modulus=None):
        if not _is_prime(p):
            raise AlgebraError("characteristic %r is not prime" % (p,))
        if s < 1:
            raise AlgebraError("extension degree must be >= 1")
        self.p = p
        self.s = s
        self.q = p ** s
        if s == 1:
            self.modulus = None
        else:
            if modulus is None:
                try:
                    modulus = _BUILTIN_MODULI[(p, s)]
                except KeyError:
                    raise AlgebraError(
                        "no built-in modulus for q=%d^%d; pass one explicitly"
                        % (p, s))
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise AlgebraError("modulus must be monic of degree s")
            if not _modp_irreducible(list(modulus), p):
                raise AlgebraError("modulus %r is reducible over F_%d"
                                   % (modulus, p))
            self.modulus = modulus
        self._interned = {}
        self._mul_cache = {}
        self._inv_cache = {}
        # reductions of g^k for k = s .. 2s-2, as coord tuples
        self._gen_pow = None
        if s > 1:
            red = {}
            cur = [(-c) % p for c in self.modulus[:-1]]  # g^s
            red[s] = tuple(cur)
            for k in range(s + 1, 2 * s - 1):
                nxt = [0] + cur[:-1]
                top = cur[-1]
                if top:
                    for i in range(s):
                        nxt[i] = (nxt[i] + top * red[s][i]) % p
                cur = nxt
                red[k] = tuple(cur)
            self._gen_pow = red
        self.zero = self.element(0)
        self.one = self.element(1)

    # -- element construction ------------------------------------------------

    def element(self, value):
        """Make a field element from packed-int or coordinate-tuple form.

        A packed int encodes base-p digits little-endian, so over F_4 the
        integer 2 denotes the generator g.
        """
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise AlgebraError("element of a different field")
            return value
        if isinstance(value, int):
            if value < 0:
                return -self.element(-value)
            digits = []
            v = value
            for _ in range(self.s):
                digits.append(v % self.p)
                v //= self.p
            if v:
                raise AlgebraError("packed value %d out of range for q=%d"
                                   % (value, self.q))
            coords = tuple(digits)
        else:
            coords = tuple(int(c) % self.p for c in value)
            if len(coords) != self.s:
                raise AlgebraError("expected %d coordinates" % self.s)
        el = self._interned.get(coords)
        if el is None:
            el = FieldElement(self, coords)
            self._interned[coords] = el
        return el

    def generator(self):
        if self.s == 1:
            raise AlgebraError("prime field has no extension generator")
        return self.element((0, 1) + (0,) * (self.s - 2))

    def elements(self):
        return [self.element(i) for i in range(self.q)]

    def units(self):
        return [self.element(i) for i in range(1, self.q)]

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.s, self.modulus)
                == (other.p, other.s, other.modulus))

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return "FieldSpec(p=%d, s=%d)" % (self.p, self.s)


class FieldElement:
    """Element of F_q as a little-endian digit vector in the polynomial
    basis.  Instances are interned per field; compare with ==, hash freely.
    """

    __slots__ = ("field", "coords", "_hash")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords
        self._hash = hash((field.p, field.s, coords))

    def to_int(self):
        v = 0
        for c in reversed(self.coords):
            v = v * self.field.p + c
        return v

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        f = self.field
        if not isinstance(other, FieldElement):
            other = f.element(other)
        return f.element(tuple((a + b) % f.p
                               for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        f = self.field
        return f.element(tuple((-a) % f.p for a in self.coords))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            other = self.field.element(other)
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, FieldElement):
            other = f.element(other)
        key = (self.coords, other.coords)
        cached = f._mul_cache.get(key)
        if cached is not None:
            return cached
        if f.s == 1:
            out = f.element(((self.coords[0] * other.coords[0]) % f.p,))
        else:
            s, p = f.s, f.p
            conv = [0] * (2 * s - 1)
            for i, a in enumerate(self.coords):
                if a:
                    for j, b in enumerate(other.coords):
                        conv[i + j] = (conv[i + j] + a * b) % p
            acc = conv[:s]
            for k in range(s, 2 * s - 1):
                c = conv[k]
                if c:
                    red = f._gen_pow[k]
                    for i in range(s):
                        acc[i] = (acc[i] + c * red[i]) % p
            out = f.element(tuple(acc))
        f._mul_cache[key] = out
        return out

    def inverse(self):
        if self.is_zero():
            raise AlgebraError("inversion of zero")
        f = self.field
        cached = f._inv_cache.get(self.coords)
        if cached is not None:
            return cached
        if f.s == 1:
            out = f.element((pow(self.coords[0], f.p - 2, f.p),))
        else:
            out = f.one
            base = self
            e = f.q - 2
            while e:
                if e & 1:
                    out = out * base
                base = base * base
                e >>= 1
        f._inv_cache[self.coords] = out
        return out

    def __truediv__(self, other):
        return self * self.field.element(other).inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (isinstance(other, FieldElement)
                and self.field == other.field
                and self.coords == other.coords)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "F%d(%d)" % (self.field.q, self.to_int())


# ---------------------------------------------------------------------------
# polynomials over F_q in the variable t


class Polynomial:
    """Element of F_q[t]; coeffs[i] is the coefficient of t^i, trailing zeros
    stripped so the representation is canonical.
    """

    __slots__ = ("field", "coeffs", "_hash", "_key")

    def __init__(self, field, coeffs=()):
        cs = [c if isinstance(c, FieldElement) else field.element(c)
              for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self._hash = hash((field.q,) + tuple(c.coords for c in self.coeffs))
        self._key = None

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def t(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field,
                          [self.coefficient(i) + other.coefficient(i)
                           for i in range(n)])

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    def scale(self, c):
        c = self.field.element(c)
        return Polynomial(self.field, [a * c for a in self.coeffs])

    def shift(self, k):
        """Multiply by t^k, k >= 0."""
        if self.is_zero():
            return self
        return Polynomial(self.field, (self.field.zero,) * k + self.coeffs)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise AlgebraError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        neg_inv_lead = -other.leading().inverse()
        terms = [(i, b) for i, b in enumerate(other.coeffs) if b]
        quo = [self.field.zero] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            f = rem[-1] * neg_inv_lead
            sh = len(rem) - 1 - db
            quo[sh] = -f
            for i, b in terms:
                rem[sh + i] = rem[sh + i] + f * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return (Polynomial(self.field, quo), Polynomial(self.field, rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        out = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # read as P/1 in F_q(t), so a matrix entry is used alike in either ring

    @property
    def num(self):
        return self

    def is_polynomial(self):
        return True

    def valuation(self):
        """nu at infinity: -deg; +inf for 0."""
        return INF if self.is_zero() else -self.degree

    def inverse(self):
        """Inverse of a unit of F_q[t], a nonzero constant."""
        if self.degree != 0:
            raise AlgebraError("%s is not a unit of F_q[t]" % self)
        return Polynomial(self.field, (self.coeffs[0].inverse(),))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def is_irreducible(self):
        """Ben-Or's test: P of degree d >= 1 is irreducible over F_q if and
        only if gcd(P, t^(q^i) - t mod P) = 1 for every 1 <= i <= d/2."""
        if self.degree < 1:
            return False
        t = Polynomial.t(self.field)
        h = t
        for _ in range(self.degree // 2):
            # h = h^q mod P, by square and multiply
            acc, base, e = Polynomial.one(self.field), h, self.field.q
            while e:
                if e & 1:
                    acc = acc * base % self
                e >>= 1
                if e:
                    base = base * base % self
            h = acc
            if poly_gcd(self, h - t).degree != 0:
                return False
        return True

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise AlgebraError("mixed fields")
            return other
        return Polynomial(self.field, (other,))

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return self._hash

    def key(self):
        if self._key is None:
            self._key = tuple(c.to_int() for c in self.coeffs)
        return self._key

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return "Poly(%s)" % format_polynomial(self)


def poly_gcd(a, b):
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Element of F_q(t) in lowest terms with monic denominator; 0 is 0/1."""

    __slots__ = ("num", "den", "_hash", "_key")

    def __init__(self, num, den=None):
        if den is None:
            den = Polynomial.one(num.field)
        if den.is_zero():
            raise AlgebraError("zero denominator")
        if num.is_zero():
            num = Polynomial.zero(num.field)
            den = Polynomial.one(num.field)
        else:
            if den.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num // g
                    den = den // g
            if den.leading() != num.field.one:
                lead_inv = den.leading().inverse()
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        self.num = num
        self.den = den
        self._hash = hash((num._hash, den._hash))
        self._key = None

    @classmethod
    def zero(cls, field):
        return cls(Polynomial.zero(field))

    @classmethod
    def one(cls, field):
        return cls(Polynomial.one(field))

    @classmethod
    def constant(cls, field, c):
        return cls(Polynomial.constant(field, c))

    @classmethod
    def t_power(cls, field, k):
        """t^k for any integer k (negative powers of t are powers of pi)."""
        if k >= 0:
            return cls(Polynomial.one(field).shift(k))
        return cls(Polynomial.one(field), Polynomial.one(field).shift(-k))

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def is_polynomial(self):
        return self.den.degree == 0

    def as_polynomial(self):
        if not self.is_polynomial():
            raise AlgebraError("%s is not a polynomial" % self)
        return self.num

    def valuation(self):
        """nu at infinity: deg(den) - deg(num); +inf for 0."""
        if self.is_zero():
            return INF
        return self.den.degree - self.num.degree

    def leading_coefficient(self):
        """Coefficient of pi^nu(f) in the expansion at infinity."""
        return self.num.leading() / self.den.leading()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field != self.field:
                raise AlgebraError("mixed fields")
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction(Polynomial(self.num.field, (other,)))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise AlgebraError("inversion of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __eq__(self, other):
        if isinstance(other, (Polynomial, int)):
            other = self._coerce(other)
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return self._hash

    def key(self):
        if self._key is None:
            self._key = (self.num.key(), self.den.key())
        return self._key

    def __str__(self):
        return format_rational(self)

    def __repr__(self):
        return "Rat(%s)" % format_rational(self)


# ---------------------------------------------------------------------------
# Laurent fragments at infinity


class LaurentFragment:
    """Finite piece of a pi-expansion: exponent -> nonzero coefficient, every
    stored exponent strictly below `cutoff`.  The exponent of t^m is -m.
    """

    __slots__ = ("field", "terms", "cutoff", "_key")

    def __init__(self, field, terms, cutoff):
        items = []
        for e, c in (terms.items() if isinstance(terms, dict) else terms):
            c = field.element(c)
            if c.is_zero():
                continue
            if e >= cutoff:
                raise AlgebraError(
                    "exponent %d not below cutoff %d" % (e, cutoff))
            items.append((e, c))
        items.sort(key=lambda t: t[0])
        self.field = field
        self.terms = tuple(items)
        self.cutoff = cutoff
        self._key = (cutoff,) + tuple((e, c.to_int()) for e, c in items)

    @classmethod
    def zero(cls, field, cutoff):
        return cls(field, (), cutoff)

    def is_zero(self):
        return not self.terms

    def valuation(self):
        return self.terms[0][0] if self.terms else INF

    def truncate(self, cutoff):
        return LaurentFragment(self.field,
                               [(e, c) for e, c in self.terms if e < cutoff],
                               cutoff)

    def polynomial_part(self):
        """Sum of the terms with pi-exponent <= 0, as a polynomial in t."""
        field = self.field
        if not self.terms:
            return Polynomial.zero(field)
        coeffs = {}
        for e, c in self.terms:
            if e <= 0:
                coeffs[-e] = c
        if not coeffs:
            return Polynomial.zero(field)
        deg = max(coeffs)
        return Polynomial(field,
                          [coeffs.get(i, field.zero) for i in range(deg + 1)])

    def fraction(self):
        """The fragment as (P, t^K) with value P/t^K, K the largest exponent
        (at least 0); t does not divide P when K > 0, so the pair is in
        lowest terms."""
        field = self.field
        if not self.terms:
            return Polynomial.zero(field), Polynomial.one(field)
        k = max(self.terms[-1][0], 0)
        coeffs = [field.zero] * (k - self.terms[0][0] + 1)
        for e, c in self.terms:
            coeffs[k - e] = c
        return Polynomial(field, coeffs), Polynomial.one(field).shift(k)

    def to_rational(self):
        """The fragment as the rational function P/t^K of `fraction`."""
        return RationalFunction(*self.fraction())

    def reciprocal(self, cutoff):
        """Truncated series inverse: the fragment b with
        nu(1/self - b) >= cutoff.

        With self = pi^m * sum_j a_j pi^j (a_0 != 0) the inverse is
        pi^-m * sum_k b_k pi^k, b_0 = 1/a_0 and
        b_k = -(1/a_0) * sum_{j=1..k} a_j b_(k-j).  A monomial has the
        exact inverse b_0 pi^-m.
        """
        if not self.terms:
            raise AlgebraError("inversion of zero")
        field = self.field
        m, lead = self.terms[0]
        inv = lead.inverse()
        tail = [(e - m, c) for e, c in self.terms[1:]]
        length = cutoff + m if tail else min(cutoff + m, 1)
        b = []
        for k in range(length):
            acc = field.zero
            for j, c in tail:
                if j > k:
                    break
                acc = acc + c * b[k - j]
            b.append(-acc * inv if k else inv)
        return LaurentFragment(field, [(k - m, c) for k, c in enumerate(b)],
                               cutoff)

    def __add__(self, other):
        if self.field != other.field:
            raise AlgebraError("mixed fields")
        cut = min(self.cutoff, other.cutoff)
        acc = {}
        for e, c in self.terms + other.terms:
            if e < cut:
                acc[e] = acc.get(e, self.field.zero) + c
        return LaurentFragment(self.field, acc, cut)

    def __eq__(self, other):
        return (isinstance(other, LaurentFragment)
                and self.field == other.field and self._key == other._key)

    def __hash__(self):
        return hash((self.field.q, self._key))

    def key(self):
        return self._key

    def __str__(self):
        return format_fragment(self)

    def __repr__(self):
        return "Fragment(%s; cutoff=%d)" % (format_fragment(self), self.cutoff)


def expand_at_infinity(f, cutoff):
    """Truncated pi-expansion of a rational function, exact at every step:
    the returned fragment g satisfies nu(f - g) >= cutoff.
    """
    field = f.field
    terms = {}
    residual = f
    while not residual.is_zero():
        e = residual.valuation()
        if e >= cutoff:
            break
        c = residual.leading_coefficient()
        terms[e] = c
        residual = residual - (RationalFunction.t_power(field, -e)
                               * RationalFunction.constant(field, c))
    return LaurentFragment(field, terms, cutoff)


# ---------------------------------------------------------------------------
# text format
#
# Polynomial grammar (ASCII):  term := [coef '*'] 't' ['^' uint] | coef
#                              expr := term (('+'|'-') term)*
# with coef a packed little-endian base-p integer.  Rational functions are
# "poly / poly" with optional parentheses; whitespace is ignored.


def format_polynomial(poly, var="t"):
    if poly.is_zero():
        return "0"
    parts = []
    for i in range(poly.degree, -1, -1):
        c = poly.coefficient(i)
        if c.is_zero():
            continue
        ci = c.to_int()
        if i == 0:
            parts.append(str(ci))
        elif i == 1:
            parts.append(var if ci == 1 else "%d*%s" % (ci, var))
        else:
            parts.append("%s^%d" % (var, i) if ci == 1
                         else "%d*%s^%d" % (ci, var, i))
    return "+".join(parts)


def format_rational(rf, var="t"):
    if rf.is_polynomial():
        return format_polynomial(rf.num, var)
    num = format_polynomial(rf.num, var)
    den = format_polynomial(rf.den, var)
    if rf.num.degree > 0 and len(rf.num.coeffs) > 1:
        num = "(%s)" % num
    if len(rf.den.coeffs) > 1:
        den = "(%s)" % den
    return "%s/%s" % (num, den)


def _strip_outer_parens(text):
    t = text.strip()
    while t.startswith("(") and t.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(t):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(t) - 1:
                    ok = False
                    break
        if not ok:
            break
        t = t[1:-1].strip()
    return t


def parse_polynomial(text, field, var="t"):
    src = text
    t = _strip_outer_parens("".join(text.split()))
    if not t:
        raise ParseError("empty polynomial", src, 0)
    terms = []
    pos = 0
    sign = 1
    if t[0] in "+-":
        sign = -1 if t[0] == "-" else 1
        pos = 1
    start = pos
    while True:
        if pos < len(t) and t[pos] not in "+-":
            pos += 1
            continue
        chunk = t[start:pos]
        if not chunk:
            raise ParseError("empty term", src, start)
        terms.append((sign, chunk, start))
        if pos >= len(t):
            break
        sign = -1 if t[pos] == "-" else 1
        pos += 1
        start = pos
        if start >= len(t):
            raise ParseError("dangling sign", src, pos - 1)
    result = Polynomial.zero(field)
    for sign, chunk, at in terms:
        coef = field.one
        rest = chunk
        if "*" in rest:
            cs, rest = rest.split("*", 1)
            if not cs.isdigit():
                raise ParseError("bad coefficient %r" % cs, src, at)
            coef = _packed_coefficient(cs, field, src, at)
        if rest == "":
            raise ParseError("missing term body", src, at)
        if rest.isdigit():
            if coef != field.one or "*" in chunk:
                raise ParseError("bad term %r" % chunk, src, at)
            coef = _packed_coefficient(rest, field, src, at)
            exp = 0
        else:
            if not rest.startswith(var):
                raise ParseError("expected %r" % var, src, at)
            rest = rest[len(var):]
            if rest == "":
                exp = 1
            elif rest.startswith("^") and rest[1:].isdigit():
                exp = int(rest[1:])
            else:
                raise ParseError("bad exponent %r" % rest, src, at)
        mono = Polynomial(field, (0,) * exp + (coef,))
        result = result + (mono if sign > 0 else -mono)
    return result


def _packed_coefficient(digits, field, src, at):
    value = int(digits)
    if value >= field.q:
        raise ParseError("coefficient %d out of range for q=%d"
                         % (value, field.q), src, at)
    return field.element(value)


def parse_rational(text, field, var="t"):
    src = text
    t = "".join(text.split())
    depth = 0
    slash = -1
    for i, ch in enumerate(t):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            if slash != -1:
                raise ParseError("multiple '/'", src, i)
            slash = i
    if slash == -1:
        return RationalFunction(parse_polynomial(t, field, var))
    num = parse_polynomial(_strip_outer_parens(t[:slash]), field, var)
    den_text = _strip_outer_parens(t[slash + 1:])
    if not den_text:
        raise ParseError("missing denominator", src, slash)
    den = parse_polynomial(den_text, field, var)
    if den.is_zero():
        raise ParseError("zero denominator", src, slash)
    return RationalFunction(num, den)


# fragment format: '+'-separated "c*s^e" with s denoting pi; "0" when empty

def format_fragment(fr):
    if not fr.terms:
        return "0"
    return "+".join("%d*s^%d" % (c.to_int(), e) for e, c in fr.terms)


def parse_fragment(text, field, cutoff):
    t = "".join(text.split())
    if t in ("", "0"):
        return LaurentFragment.zero(field, cutoff)
    terms = {}
    for raw in t.split("+"):
        if "*" not in raw:
            raise ParseError("bad fragment term %r" % raw, text, 0)
        cs, rest = raw.split("*", 1)
        if not cs.isdigit() or not rest.startswith("s^"):
            raise ParseError("bad fragment term %r" % raw, text, 0)
        try:
            e = int(rest[2:])
        except ValueError:
            raise ParseError("bad exponent in %r" % raw, text, 0)
        c = _packed_coefficient(cs, field, text, 0)
        if e in terms:
            raise ParseError("repeated exponent %d" % e, text, 0)
        terms[e] = c
    return LaurentFragment(field, terms, cutoff)


__all__ = [
    "AlgebraError", "ParseError", "FieldSpec", "FieldElement", "Polynomial",
    "RationalFunction", "LaurentFragment", "poly_gcd", "expand_at_infinity",
    "parse_polynomial", "parse_rational", "parse_fragment",
    "format_polynomial", "format_rational", "format_fragment", "INF",
]
