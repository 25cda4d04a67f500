"""Exact arithmetic over finite fields F_q, the polynomial ring F_q[t],
and the rational function field F_q(t) with its place at infinity.

Conventions used throughout the package:

  * an element of F_q, q = p^s, is its packed int v in 0..q-1, whose
    base-p digits (little-endian) are its coordinates in the polynomial
    basis of the field modulus, and F_q arithmetic is `FieldSpec.add`,
    `neg`, `mul` and `inv` on packed ints; `FieldElement` is the interned,
    read-only handle of v.  A prime field (s = 1) computes mod p and takes
    any prime p below 3.3e24, where primality is decided exactly.  An
    extension field (s >= 2) looks sums, negatives, products and inverses
    up in q x q tables built once per `FieldSpec` from the coordinate
    arithmetic, as the `galois` package (Hostetter) does; the tables cap
    q at MAX_EXTENSION_Q;
  * a parsed exponent, of a polynomial or of a vertex term s^e (as |e|),
    and the degree of a level's modulus, is at most MAX_DEGREE;
  * a `Polynomial` holds its coefficients as a tuple of packed ints, and
    F_q[t] arithmetic runs on lists of them (`packed_add`, `packed_mul`,
    `packed_divmod`, `packed_combination`), shared with `hecke`;
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
import operator
import sys

INF = math.inf

# Largest order of an extension field: its add and mul tables hold q^2
# entries each, about a million at the cap.
MAX_EXTENSION_Q = 1024

# Largest exponent a parsed polynomial may hold, largest |e| of a parsed
# vertex term s^e, and largest degree of the modulus N_D of a level
# (`hecke.Level`): F_q[t] values and ball centers are dense lists, so a
# larger one is refused before any list is allocated or product formed.
MAX_DEGREE = 4096


class AlgebraError(ValueError):
    pass


class ParseError(AlgebraError):
    def __init__(self, message, text, pos):
        super().__init__("%s at position %d in %r" % (message, pos, text))
        self.pos = pos
        self.text = text


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin; AlgebraError for
    n at or above _PRIME_BOUND, where the bases no longer decide."""
    if n >= _PRIME_BOUND:
        raise AlgebraError("characteristic %d is too large: primality is "
                           "decided below %d" % (n, _PRIME_BOUND))
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),      # g^2 + g + 1
    (2, 3): (1, 1, 0, 1),   # g^3 + g + 1
    (3, 2): (1, 0, 1),      # g^2 + 1
}


def _extension_tables(p, s, modulus):
    """Addition, negation, multiplication and inversion tables of
    F_p[g]/(modulus) on packed ints.

    Sums are digit-wise mod p, built one base-p digit at a time; products
    and inverses come from the powers (exp/log) of a primitive element,
    found by multiplying coordinate vectors modulo the modulus.
    """
    q = p ** s
    values = list(range(q))   # table entries share these int objects
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    size = p
    while size < q:
        add = [[values[x + (hi + bhi) % p * size]
                for bhi in range(p) for x in row]
               for hi in range(p) for row in add]
        size *= p
    neg = [row.index(0) for row in add]

    prime = FieldSpec(p)

    def times(a, b):
        prod = packed_mul(prime, [a // p ** i % p for i in range(s)],
                          [b // p ** i % p for i in range(s)])
        rem = packed_divmod(prime, prod, modulus)[1]
        return sum(x * p ** i for i, x in enumerate(rem))

    for gen in range(2, q):
        exp = [1]
        x = gen
        while x != 1:
            exp.append(x)
            x = times(x, gen)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for k, x in enumerate(exp):
        log[x] = k
    exp = exp + exp
    logs = log[1:]
    mul = [[0] * q] + [[0] + [exp[la + lb] for lb in logs] for la in logs]
    inv = [0] + [exp[q - 1 - la] for la in logs]
    return add, neg, mul, inv


class FieldSpec:
    """The field F_q, q = p^s, with elements in the polynomial basis of a
    fixed monic irreducible modulus of degree s over F_p.

    Besides the `FieldElement` handles (`element`, `zero`, `one`), the
    field does arithmetic on packed ints: `add`, `neg`, `mul`, `inv`.
    """

    def __init__(self, p, s=1, modulus=None):
        if not _is_prime(p):
            raise AlgebraError("characteristic %r is not prime" % (p,))
        if s < 1:
            raise AlgebraError("extension degree must be >= 1")
        # an absurd s is refused without computing p^s
        if s > 1 and (s > 64 or p ** s > MAX_EXTENSION_Q):
            order = "%d^%d" % (p, s) if s > 64 else "%d" % p ** s
            raise AlgebraError(
                "extension field with q=%s is too large: its arithmetic "
                "tables are capped at q <= %d" % (order, MAX_EXTENSION_Q))
        self.p = p
        self.s = s
        self.q = p ** s
        if modulus is None and s > 1:
            try:
                modulus = _BUILTIN_MODULI[(p, s)]
            except KeyError:
                raise AlgebraError(
                    "no built-in modulus for q=%d^%d; pass one explicitly"
                    % (p, s))
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise AlgebraError("modulus %r must be monic of degree s=%d"
                                   % (modulus, s))
            if not Polynomial(FieldSpec(p), modulus).is_irreducible():
                raise AlgebraError("modulus %r is reducible over F_%d"
                                   % (modulus, p))
        # every monic linear modulus gives the same coordinates
        self.modulus = modulus if s > 1 else None
        if s == 1:
            self._add = self._neg = self._mul = self._inv = None
        else:
            self._add, self._neg, self._mul, self._inv = _extension_tables(
                p, s, modulus)
        self._handles = (_Handles(self) if s == 1 else
                         [FieldElement(self, v) for v in range(self.q)])
        self.zero = self._handles[0]
        self.one = self._handles[1]

    # -- packed ints ----------------------------------------------------------

    def packed(self, value):
        """The packed int of an element of this field or of an int; an int
        must lie in 0..q-1, or be -n for the negative of the element n."""
        if type(value) is int and 0 <= value < self.q:
            return value
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise AlgebraError("element of a different field")
            return value.value
        value = operator.index(value)
        if 0 <= value < self.q:
            return value
        if value < 0:
            return self.neg(self.packed(-value))
        raise AlgebraError("packed value %d out of range for q=%d"
                           % (value, self.q))

    def add(self, a, b):
        return (a + b) % self.p if self.s == 1 else self._add[a][b]

    def neg(self, a):
        return -a % self.p if self.s == 1 else self._neg[a]

    def mul(self, a, b):
        return a * b % self.p if self.s == 1 else self._mul[a][b]

    def inv(self, a):
        if not a:
            raise AlgebraError("inversion of zero")
        return pow(a, self.p - 2, self.p) if self.s == 1 else self._inv[a]

    # -- element handles ------------------------------------------------------

    def element(self, value):
        """The interned element of a packed int (see `packed`), so over F_4
        the integer 2 denotes the generator g; an element of an equal field
        is returned as it is."""
        if isinstance(value, FieldElement):
            self.packed(value)
            return value
        return self._handles[self.packed(value)]

    def generator(self):
        if self.s == 1:
            raise AlgebraError("prime field has no extension generator")
        return self.element(self.p)

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.s, self.modulus)
                == (other.p, other.s, other.modulus))

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return "FieldSpec(p=%d, s=%d)" % (self.p, self.s)


class FieldElement:
    """Interned handle of the packed int `value` of an element of F_q.

    An element equals an element of an equal field with the same value, and
    an int exactly when the int is its value; it hashes as its value.  The
    field computes on the values (`FieldSpec.add`, `neg`, `mul`, `inv`);
    the one operator, `*`, is a product and a lookup of the interned
    result, kept as the F_q kernel the benchmark times.
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def to_int(self):
        return self.value

    def __bool__(self):
        return bool(self.value)

    def __mul__(self, other):
        f, a = self.field, self.value
        b = (other.value if type(other) is FieldElement
             and other.field is f else f.packed(other))
        return f._handles[a * b % f.p if f.s == 1 else f._mul[a][b]]

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.value == other.value
                    and (self.field is other.field
                         or self.field == other.field))
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "F%d(%d)" % (self.field.q, self.value)


class _Handles(dict):
    """The interned `FieldElement` of each packed int of a prime field,
    made on first use; only reduced packed ints are looked up.  An extension
    field keeps its q handles in a list."""

    __slots__ = ("field",)

    def __init__(self, field):
        super().__init__()
        self.field = field

    def __missing__(self, value):
        el = self[value] = FieldElement(self.field, value)
        return el


# ---------------------------------------------------------------------------
# polynomials over F_q in the variable t, on packed coefficient lists (no
# trailing zero) that `Polynomial`, Ben-Or's test and `hecke` share


def packed_add(field, a, b):
    """a + b on packed coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return list(a)
    if field.s == 1:
        p = field.p
        out = [(x + y) % p for x, y in zip(a, b)]
    else:
        add = field._add
        out = [add[x][y] for x, y in zip(a, b)]
    out.extend(a[len(b):])
    while out and not out[-1]:
        out.pop()
    return out


def packed_mul(field, a, b):
    """a * b on packed coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) <= 1:
        c = b[0] if b else 0
        if c <= 1:
            return list(a) if c else []
        if field.s == 1:
            p = field.p
            return [x * c % p for x in a]
        return list(map(field._mul[c].__getitem__, a))
    out = [0] * (len(a) + len(b) - 1)
    if field.s == 1:
        for i, x in enumerate(b):
            if x:
                for j, y in enumerate(a, i):
                    out[j] += x * y
        p = field.p
        return [x % p for x in out]
    add, mul = field._add, field._mul
    for i, x in enumerate(b):
        if x:
            row = mul[x]
            for j, y in enumerate(a, i):
                out[j] = add[out[j]][row[y]]
    return out


def packed_divmod(field, a, b):
    """(quotient, remainder) of a by b != 0 on packed coefficient lists."""
    if not b:
        raise AlgebraError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], rem
    quo = [0] * (len(rem) - db)
    inv_lead = field.inv(b[-1])
    terms = [(i, y) for i, y in enumerate(b[:-1]) if y]
    if not terms:
        # b = c t^db: the quotient is a shifted down, over c
        quo = packed_mul(field, rem[db:], [inv_lead])
        del rem[db:]
    elif field.s == 1:
        # remainder entries are reduced mod p only when read
        p = field.p
        for sh in range(len(quo) - 1, -1, -1):
            c = rem[sh + db] * inv_lead % p
            if c:
                quo[sh] = c
                for i, y in terms:
                    rem[sh + i] -= c * y
        rem = [x % p for x in rem[:db]]
    else:
        add, mul, neg = field._add, field._mul, field._neg
        for sh in range(len(quo) - 1, -1, -1):
            c = mul[rem[sh + db]][inv_lead]
            if c:
                quo[sh] = c
                row = mul[neg[c]]
                for i, y in terms:
                    rem[sh + i] = add[rem[sh + i]][row[y]]
        del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def packed_gcd(field, a, b, cofactor=False):
    """The monic gcd g of a and b on packed coefficient lists, [] when both
    are zero, by Euclid's algorithm, which divides b by a first.  With
    `cofactor`, for b != 0, (g, s, m): each remainder r is kept with the s of
    r = s*a (mod b), so s*a = g (mod b), and the s of the last remainder,
    0, is a unit times b/g, made monic as m.  For deg a < deg b, s is the
    inverse of a/g modulo m, of lower degree."""
    r0, r1 = b, a
    if not cofactor:
        while r1:
            r0, r1 = r1, packed_divmod(field, r0, r1)[1]
        if r0 and r0[-1] != 1:
            return packed_mul(field, r0, [field.inv(r0[-1])])
        return r0
    s0, s1, minus_one = [], [1], [field.neg(1)]
    while r1:
        quo, rem = packed_divmod(field, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, packed_add(field, s0, packed_mul(
            field, packed_mul(field, quo, s1), minus_one))
    if r0[-1] != 1:
        inv = [field.inv(r0[-1])]
        r0, s0 = packed_mul(field, r0, inv), packed_mul(field, s0, inv)
    if s1[-1] != 1:
        s1 = packed_mul(field, s1, [field.inv(s1[-1])])
    return r0, s0, s1


def packed_combination(field, terms):
    """The sum of c * P over the pairs (c, P) in `terms`, each c a packed
    int and P a packed coefficient list, in one pass over the coefficients."""
    terms = [(c, cs) for c, cs in terms if c and cs]
    if not terms:
        return []
    out = [0] * max(len(cs) for _, cs in terms)
    if field.s == 1:
        for c, cs in terms:
            for j, x in enumerate(cs):
                out[j] += c * x
        p = field.p
        out = [x % p for x in out]
    else:
        add, mul = field._add, field._mul
        for c, cs in terms:
            row = mul[c]
            for j, x in enumerate(cs):
                out[j] = add[out[j]][row[x]]
    while out and not out[-1]:
        out.pop()
    return out


class Polynomial:
    """Element of F_q[t]; packed_coeffs[i] is the packed int of the
    coefficient of t^i, trailing zeros stripped so the representation is
    canonical.  `coeffs` gives them as `FieldElement`s.
    """

    __slots__ = ("field", "packed_coeffs")

    def __init__(self, field, coeffs=()):
        cs = [field.packed(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.packed_coeffs = tuple(cs)

    @classmethod
    def _of(cls, field, cs):
        """Polynomial of a list of packed ints, reduced already."""
        while cs and not cs[-1]:
            cs.pop()
        poly = cls.__new__(cls)
        poly.field = field
        poly.packed_coeffs = tuple(cs)
        return poly

    @classmethod
    def zero(cls, field):
        return cls._of(field, [])

    @classmethod
    def one(cls, field):
        return cls._of(field, [1])

    @classmethod
    def t(cls, field):
        return cls._of(field, [0, 1])

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @property
    def coeffs(self):
        handles = self.field._handles
        return tuple(handles[c] for c in self.packed_coeffs)

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.packed_coeffs) - 1

    def is_zero(self):
        return not self.packed_coeffs

    def __bool__(self):
        return bool(self.packed_coeffs)

    def is_monic(self):
        return bool(self.packed_coeffs) and self.packed_coeffs[-1] == 1

    def __add__(self, other):
        return Polynomial._of(self.field, packed_add(
            self.field, self.packed_coeffs, self._coerce(other).packed_coeffs))

    def __neg__(self):
        f = self.field
        return Polynomial._of(f, packed_mul(f, self.packed_coeffs,
                                            [f.neg(1)]))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return Polynomial._of(self.field, packed_mul(
            self.field, self.packed_coeffs, self._coerce(other).packed_coeffs))

    def scale(self, c):
        f = self.field
        return Polynomial._of(
            f, packed_mul(f, self.packed_coeffs, [f.packed(c)]))

    def shift(self, k):
        """Multiply by t^k, k >= 0."""
        if not self.packed_coeffs:
            return self
        return Polynomial._of(self.field, [0] * k + list(self.packed_coeffs))

    def __divmod__(self, other):
        f = self.field
        quo, rem = packed_divmod(f, self.packed_coeffs,
                                 self._coerce(other).packed_coeffs)
        return Polynomial._of(f, quo), Polynomial._of(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
        return Polynomial._of(self.field,
                              [self.field.inv(self.packed_coeffs[0])])

    def is_irreducible(self):
        """Ben-Or's test: P of degree d >= 1 is irreducible over F_q if and
        only if gcd(P, t^(q^i) - t mod P) = 1 for every 1 <= i <= d/2.
        Runs on packed coefficient lists.  h^q = h(t^q), as c^q = c on F_q
        and x -> x^q is additive, so a round spreads h and divides once;
        once q (deg P + 1) exceeds 256 the spread costs more than square
        and multiply, which is used instead."""
        f, P = self.field, self.packed_coeffs
        q, h = f.q, [0, 1]
        if len(P) < 2:
            return False
        for _ in range(self.degree // 2):
            if q * len(P) <= 256:
                spread = [0] * (q * len(h) - q + 1)
                spread[::q] = h
                h = packed_divmod(f, spread, P)[1]
            else:
                acc = [1]
                for bit in bin(q)[2:]:
                    acc = packed_divmod(f, packed_mul(f, acc, acc), P)[1]
                    if bit == "1":
                        acc = packed_divmod(f, packed_mul(f, acc, h), P)[1]
                h = acc
            if len(packed_gcd(f, packed_add(f, h, [0, f.neg(1)]), P)) != 1:
                return False
        return True

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field is not self.field and other.field != self.field:
                raise AlgebraError("mixed fields")
            return other
        return Polynomial(self.field, (other,))

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.packed_coeffs == other.packed_coeffs
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash(self.packed_coeffs)

    def key(self):
        return self.packed_coeffs

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return "Poly(%s)" % format_polynomial(self)


def poly_gcd(a, b):
    """The monic gcd of a and b, 0 when both are 0."""
    return Polynomial._of(a.field, packed_gcd(a.field, b.packed_coeffs,
                                              a.packed_coeffs))


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Element of F_q(t) in lowest terms with monic denominator; 0 is 0/1."""

    __slots__ = ("num", "den")

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
            lead = den.packed_coeffs[-1]
            if lead != 1:
                lead_inv = num.field.inv(lead)
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        self.num = num
        self.den = den

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

    def valuation(self):
        """nu at infinity: deg(den) - deg(num); +inf for 0."""
        if self.is_zero():
            return INF
        return self.den.degree - self.num.degree

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
        return hash(self.key())

    def key(self):
        return (self.num.packed_coeffs, self.den.packed_coeffs)

    def __str__(self):
        return format_rational(self)

    def __repr__(self):
        return "Rat(%s)" % format_rational(self)


# ---------------------------------------------------------------------------
# Laurent fragments at infinity


class LaurentFragment:
    """Finite piece of a pi-expansion: exponent -> nonzero coefficient, every
    stored exponent strictly below `cutoff`.  The exponent of t^m is -m.

    `packed_terms` holds the (exponent, packed int) pairs in increasing
    exponent; `terms` gives the same pairs with `FieldElement`s.
    """

    __slots__ = ("field", "packed_terms", "cutoff", "_key")

    def __init__(self, field, terms, cutoff):
        items = []
        for e, c in (terms.items() if isinstance(terms, dict) else terms):
            c = field.packed(c)
            if not c:
                continue
            if e >= cutoff:
                raise AlgebraError(
                    "exponent %d not below cutoff %d" % (e, cutoff))
            items.append((e, c))
        items.sort(key=lambda t: t[0])
        self.field = field
        self.packed_terms = tuple(items)
        self.cutoff = cutoff
        self._key = (cutoff,) + self.packed_terms

    @classmethod
    def zero(cls, field, cutoff):
        return cls(field, (), cutoff)

    @property
    def terms(self):
        handles = self.field._handles
        return tuple((e, handles[c]) for e, c in self.packed_terms)

    def is_zero(self):
        return not self.packed_terms

    def truncate(self, cutoff):
        return LaurentFragment(
            self.field, [(e, c) for e, c in self.packed_terms if e < cutoff],
            cutoff)

    def fraction(self):
        """The fragment as (P, K) with value P/t^K, P a packed coefficient
        list and K the largest exponent (at least 0); t does not divide P
        when K > 0, so the pair is in lowest terms."""
        terms = self.packed_terms
        if not terms:
            return [], 0
        k = max(terms[-1][0], 0)
        coeffs = [0] * (k - terms[0][0] + 1)
        for e, c in terms:
            coeffs[k - e] = c
        return coeffs, k

    def to_rational(self):
        """The fragment as the rational function P/t^K of `fraction`."""
        num, k = self.fraction()
        return RationalFunction(Polynomial._of(self.field, num),
                                Polynomial.one(self.field).shift(k))

    def __eq__(self, other):
        return (isinstance(other, LaurentFragment)
                and self.field == other.field and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def key(self):
        return self._key

    def __str__(self):
        return format_fragment(self)

    def __repr__(self):
        return "Fragment(%s; cutoff=%d)" % (format_fragment(self), self.cutoff)


def expand_at_infinity(f, cutoff):
    """Truncated pi-expansion of a rational function f: the returned
    fragment g satisfies nu(f - g) >= cutoff."""
    return expand_pair(f.num, f.den, cutoff)


def expand_pair(num, den, cutoff):
    """Truncated pi-expansion of num/den, den != 0, a pair that need not be
    in lowest terms nor have a monic denominator: the returned fragment g
    satisfies nu(num/den - g) >= cutoff.

    The terms c_e pi^e of num/den with e <= N = cutoff - 1 are the terms
    c_e t^(N-e) of the polynomial part of (num/den) t^N, which is one
    polynomial quotient.  A monomial denominator c*t^K needs no division:
    num/den is num/c read with every exponent moved by K, so the cost does
    not depend on the cutoff.
    """
    field = num.field
    k = den.degree
    if num.is_zero() or k - num.degree >= cutoff:
        return LaurentFragment.zero(field, cutoff)
    dcs = den.packed_coeffs
    if dcs.count(0) == k:
        inv = field.inv(dcs[-1])
        return LaurentFragment(
            field, [(k - i, field.mul(inv, c))
                    for i, c in enumerate(num.packed_coeffs)
                    if c and k - i < cutoff], cutoff)
    n = cutoff - 1
    quo = num.shift(n) // den if n >= 0 else num // den.shift(-n)
    return LaurentFragment(
        field, [(n - m, c) for m, c in enumerate(quo.packed_coeffs)], cutoff)


# ---------------------------------------------------------------------------
# text format
#
# Polynomial grammar (ASCII):  term := [coef '*'] 't' ['^' uint] | coef
#                              expr := term (('+'|'-') term)*
# with coef a packed little-endian base-p integer.  Rational functions are
# "poly / poly" with optional parentheses; whitespace is ignored.


def format_polynomial(poly):
    if poly.is_zero():
        return "0"
    parts = []
    for i in range(poly.degree, -1, -1):
        ci = poly.packed_coeffs[i]
        if not ci:
            continue
        if i == 0:
            parts.append(str(ci))
        elif i == 1:
            parts.append("t" if ci == 1 else "%d*t" % ci)
        else:
            parts.append("t^%d" % i if ci == 1 else "%d*t^%d" % (ci, i))
    return "+".join(parts)


def format_rational(rf):
    if rf.is_polynomial():
        return format_polynomial(rf.num)
    num = format_polynomial(rf.num)
    den = format_polynomial(rf.den)
    if rf.num.degree > 0:
        num = "(%s)" % num
    if rf.den.degree > 0:
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
    out = []
    for sign, chunk, at in terms:
        coef = 1
        rest = chunk
        if "*" in rest:
            cs, rest = rest.split("*", 1)
            if not cs.isdigit():
                raise ParseError("bad coefficient %r" % cs, src, at)
            coef = _packed_coefficient(cs, field, src, at)
        if rest == "":
            raise ParseError("missing term body", src, at)
        if rest.isdigit():
            if coef != 1 or "*" in chunk:
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
                exp = decimal_value(rest[1:], "exponent", src, at)
                if exp > MAX_DEGREE:
                    raise ParseError("exponent %d is above the degree cap %d"
                                     % (exp, MAX_DEGREE), src, at)
            else:
                raise ParseError("bad exponent %r" % rest, src, at)
        out.extend([0] * (exp + 1 - len(out)))
        out[exp] = field.add(out[exp], coef if sign > 0 else field.neg(coef))
    return Polynomial._of(field, out)


def decimal_value(digits, what, src, at):
    """int(digits) for a string `str.isdigit` accepted, or ParseError:
    isdigit admits digits int refuses, and int reads a bounded number."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("%s is not a decimal number of at most %d digits"
                         % (what, sys.get_int_max_str_digits()), src, at) \
            from None


def _packed_coefficient(digits, field, src, at):
    try:
        value = int(digits)   # every vertex term passes here
    except ValueError:
        value = decimal_value(digits, "coefficient", src, at)   # raises
    if value >= field.q:
        raise ParseError("coefficient %d out of range for q=%d"
                         % (value, field.q), src, at)
    return value


def parse_rational(text, field):
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
        return RationalFunction(parse_polynomial(t, field))
    num = parse_polynomial(_strip_outer_parens(t[:slash]), field)
    den_text = _strip_outer_parens(t[slash + 1:])
    if not den_text:
        raise ParseError("missing denominator", src, slash)
    den = parse_polynomial(den_text, field)
    if den.is_zero():
        raise ParseError("zero denominator", src, slash)
    return RationalFunction(num, den)


# fragment format: '+'-separated "c*s^e" with s denoting pi; "0" when empty

def format_fragment(fr):
    if not fr.packed_terms:
        return "0"
    return "+".join("%d*s^%d" % (c, e) for e, c in fr.packed_terms)


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
        if abs(e) > MAX_DEGREE:
            raise ParseError("exponent %d is outside the degree cap %d"
                             % (e, MAX_DEGREE), text, 0)
        c = _packed_coefficient(cs, field, text, 0)
        if e in terms:
            raise ParseError("repeated exponent %d" % e, text, 0)
        terms[e] = c
    return LaurentFragment(field, terms, cutoff)


__all__ = [
    "AlgebraError", "ParseError", "FieldSpec", "FieldElement", "Polynomial",
    "RationalFunction", "LaurentFragment", "poly_gcd", "expand_at_infinity",
    "expand_pair", "parse_polynomial", "parse_rational", "parse_fragment",
    "format_polynomial", "format_rational", "format_fragment", "INF",
    "packed_add", "packed_mul", "packed_divmod", "packed_gcd",
    "packed_combination",
]
