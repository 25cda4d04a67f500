"""Table arithmetic over F_q, F_q[t] and truncated expansions in s = 1/t,
for drawing the queries inputs and checking the images in their gates.

This is independent of the package under test, so the generated inputs do
not depend on the code being measured, and the gates do not trust its
`act`.  Elements use the package's text
encoding: base-p digits packed little-endian into one integer, with
F_4 = F_2[g]/(g^2 + g + 1) and F_9 = F_3[g]/(g^2 + 1).  Polynomials are
lists of such integers, lowest degree first, with no trailing zeros.
"""

# q -> (p, s, monic modulus of the extension, lowest coefficient first)
_FIELDS = {2: (2, 1, None), 3: (3, 1, None), 4: (2, 2, (1, 1, 1)),
           5: (5, 1, None), 9: (3, 2, (1, 0, 1))}


class Field:
    def __init__(self, q):
        p, s, modulus = _FIELDS[q]
        self.q = q
        coords = [tuple((k // p ** i) % p for i in range(s)) for k in range(q)]
        pack = {c: k for k, c in enumerate(coords)}

        def mul(a, b):
            prod = [0] * (2 * s - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    prod[i + j] += x * y
            for k in range(2 * s - 2, s - 1, -1):
                c = prod[k] % p
                for i in range(s + 1):
                    prod[k - s + i] -= c * modulus[i]
            return tuple(x % p for x in prod[:s])

        self.add = [[pack[tuple((x + y) % p for x, y in zip(a, b))]
                     for b in coords] for a in coords]
        self.mul = [[pack[mul(a, b)] for b in coords] for a in coords]
        self.neg = [pack[tuple(-x % p for x in a)] for a in coords]
        self.inv = [None] + [self.mul[a].index(1) for a in range(1, q)]

    # -- F_q[t] --------------------------------------------------------------

    def trim(self, a):
        while a and a[-1] == 0:
            a.pop()
        return a

    def padd(self, a, b):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return self.trim([self.add[x][y] for x, y in zip(a, b)])

    def sub(self, a, b):
        return self.padd(a, [self.neg[y] for y in b])

    def pmul(self, a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            row = self.mul[x]
            for j, y in enumerate(b):
                out[i + j] = self.add[out[i + j]][row[y]]
        return self.trim(out)

    def pmod(self, a, f):
        """Remainder of a by a nonzero f."""
        a = list(a)
        scale = self.inv[f[-1]]
        d = len(f) - 1
        while len(a) > d:
            c = self.mul[a[-1]][scale]
            shift = len(a) - 1 - d
            for i, y in enumerate(f):
                a[shift + i] = self.add[a[shift + i]][self.neg[self.mul[c][y]]]
            self.trim(a)
        return a

    def matmul(self, x, y):
        """Product of 2x2 matrices (a, b, c, d) over F_q[t]."""
        a, b, c, d = x
        e, f, g, h = y
        return (self.padd(self.pmul(a, e), self.pmul(b, g)),
                self.padd(self.pmul(a, f), self.pmul(b, h)),
                self.padd(self.pmul(c, e), self.pmul(d, g)),
                self.padd(self.pmul(c, f), self.pmul(d, h)))

    def gcd_is_one(self, a, b):
        while b:
            a, b = b, self.pmod(a, b)
        return len(a) == 1

    def is_irreducible(self, f):
        """Ben-Or: monic f of degree d is irreducible iff
        gcd(f, t^(q^i) - t) = 1 for i = 1 .. d // 2."""
        t = [0, 1]
        h = t
        for _ in range(1, (len(f) - 1) // 2 + 1):
            power, base, e = [1], h, self.q
            while e:
                if e & 1:
                    power = self.pmod(self.pmul(power, base), f)
                base = self.pmod(self.pmul(base, base), f)
                e >>= 1
            h = power
            if not self.gcd_is_one(f, self.sub(h, t)):
                return False
        return len(f) > 1

    def random_irreducible(self, degree, rng):
        """Uniform monic irreducible polynomial of the given degree."""
        while True:
            f = [rng.randrange(self.q) for _ in range(degree)] + [1]
            if self.is_irreducible(f):
                return f


def format_poly(f):
    """The package's polynomial text: '+'-joined 'c*t^e' terms, highest
    degree first, with unit coefficients and exponents left implicit."""
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            mono = "t" if e == 1 else "t^%d" % e
            parts.append(mono if c == 1 else "%d*%s" % (c, mono))
    return "+".join(parts) or "0"


def level(F, r, terms):
    """Reduction level n of the ball B_a^{|r|}, a = sum c * s^e over
    `terms` {e: c} (s = 1/t, every e < r): the n with the ball in the
    GL2(F_q[t])-orbit of v_n = B_0^{|-n|}.  Runs the continued fraction
    directly on the truncated expansion: drop the polynomial part
    (exponents <= 0); a zero centre with r <= 0 is v_{-r}, one with r >= 1
    inverts to v_r; a centre of valuation k inverts to radius r - 2k."""
    a = {e: c for e, c in terms.items() if c}
    while True:
        a = {e: c for e, c in a.items() if e > 0}
        if not a:
            return abs(r)
        r -= 2 * min(a)
        a = _quotient_below(F, {0: 1}, a, r)


def frame(F, r, terms):
    """(n, M): the reduction level of B_a^{|r|} as `level` finds it, and
    M = (m11, m12, m21, m22) in GL2(F_q[t]) with M.B_a^{|r|} = v_n, the
    product of the steps `level` takes: z -> z - p for the polynomial
    part p, and z -> 1/z."""
    flip = ([], [1], [1], [])
    M = ([1], [], [], [1])
    a = {e: c for e, c in terms.items() if c}
    while True:
        poly = F.trim([F.neg[a.get(-k, 0)]
                       for k in range(max([0] + [-e for e in a]) + 1)])
        if poly:
            M = F.matmul(([1], poly, [], [1]), M)
        a = {e: c for e, c in a.items() if e > 0}
        if not a:
            if r >= 1:
                M = F.matmul(flip, M)
            return abs(r), M
        r -= 2 * min(a)
        a = _quotient_below(F, {0: 1}, a, r)
        M = F.matmul(flip, M)


def _residues(F, vectors, modulus):
    """Each polynomial mod `modulus`, as a coefficient row of fixed width."""
    width = len(modulus) - 1
    rows = []
    for v in vectors:
        v = F.pmod(v, modulus)
        rows.append(v + [0] * (width - len(v)))
    return rows


def _rank(F, rows):
    """Rank over F_q of the rows, by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = F.inv[rows[rank][col]]
        prow = [F.mul[x][scale] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [F.add[x][F.neg[F.mul[c][y]]]
                           for x, y in zip(rows[i], prow)]
        rows[rank] = prow
        rank += 1
    return rank


def stabilizer_order(F, M, n, modulus):
    """Order of Stab_{H_D}(v) for v = M^-1.v_n, which is the s in
    Stab(v_n) whose conjugate M^-1 s M has lower-left entry
    ((s22 - s11) m11 m21 - s12 m21^2 + s21 m11^2) / det M = 0 mod N_D.
    Stab(v_n) is GL2(F_q) for n = 0, and [[alpha, b], [0, beta]] with
    deg b <= n for n >= 1."""
    q = F.q
    m11, m21 = M[0], M[2]
    square = F.pmul(m21, m21)
    if n >= 1:
        # (beta - alpha) m11 m21 = sum b_i t^i m21^2: when m11 m21 lies in
        # the span of the right side, beta - alpha is free
        spans = _residues(F, [[0] * i + square if square else []
                              for i in range(n + 1)], modulus)
        first = _residues(F, [F.pmul(m11, m21)], modulus)
        rank = _rank(F, spans)
        free = _rank(F, spans + first) == rank
        return (q - 1) ** (1 + free) * q ** (n + 1 - rank)
    # s = [[a, b], [c, a + u]]: count (u, b, c) on the congruence, then
    # the a with a(a + u) - bc != 0
    vu, vb, vc = _residues(F, [F.pmul(m11, m21), square, F.pmul(m11, m11)],
                           modulus)
    add, mul, neg = F.add, F.mul, F.neg
    pivot = next((i for i, z in enumerate(vc) if z), None)
    order = 0
    for u in range(q):
        for b in range(q):
            # c vc = b vb - u vu: c is free when vc = 0, else fixed
            rest = [add[mul[b][y]][neg[mul[u][x]]] for x, y in zip(vu, vb)]
            if pivot is None:
                cs = range(q) if not any(rest) else ()
            else:
                c = mul[rest[pivot]][F.inv[vc[pivot]]]
                cs = (c,) if all(mul[c][z] == w
                                 for z, w in zip(vc, rest)) else ()
            for c in cs:
                bc = mul[b][c]
                order += sum(1 for a in range(q)
                             if add[mul[a][add[a][u]]][neg[bc]])
    return order


# -- the tree action on balls, over truncated expansions in s = 1/t ---------
# A Laurent polynomial in s is a dict {exponent: nonzero coefficient}; t^i
# is s^-i.


def _lmul(F, a, b):
    out = {}
    for e, x in a.items():
        row = F.mul[x]
        for f, y in b.items():
            out[e + f] = F.add[out.get(e + f, 0)][row[y]]
    return {e: c for e, c in out.items() if c}


def _ladd(F, a, b):
    out = dict(a)
    for e, y in b.items():
        out[e] = F.add[out.get(e, 0)][y]
    return {e: c for e, c in out.items() if c}


def _quotient_below(F, a, c, cutoff):
    """Terms of a / c with exponent below `cutoff`."""
    if not a:
        return {}
    k = min(c)
    lo = min(a)
    n = cutoff + k - lo                 # coefficients of a * (c / s^k)^-1
    if n <= 0:
        return {}
    u = [c.get(k + i, 0) for i in range(n)]
    u0_inv = F.inv[u[0]]
    inv = [u0_inv]
    for i in range(1, n):
        acc = 0
        for j in range(1, i + 1):
            acc = F.add[acc][F.mul[u[j]][inv[i - j]]]
        inv.append(F.mul[F.neg[acc]][u0_inv])
    out = {}
    for e, x in a.items():
        row = F.mul[x]
        for i in range(min(n, cutoff + k - e)):
            if inv[i]:
                out[e + i - k] = F.add[out.get(e + i - k, 0)][row[inv[i]]]
    return {e: c for e, c in out.items() if c}


def act(F, g, r, terms):
    """Image of the ball B_a^{|r|} (a = sum c * s^e over `terms`) under
    g = (alpha, beta, gamma, delta), polynomials in t with det g in F_q*.

    The lattice of the ball has basis columns (a, 1) and (s^r, 0); g maps
    them to (alpha a + beta, gamma a + delta) and (alpha s^r, gamma s^r).
    With (x, y) the column whose lower entry has the least valuation k, the
    image is the ball of radius exponent r - 2k (the basis determinant has
    valuation r) centred at x / y.  Returns (r', {e: c})."""
    alpha, beta, gamma, delta = ({-i: c for i, c in enumerate(p) if c}
                                 for p in g)
    a = {e: c for e, c in terms.items() if c}
    left = (_ladd(F, _lmul(F, alpha, a), beta),
            _ladd(F, _lmul(F, gamma, a), delta))
    right = (_lmul(F, alpha, {r: 1}), _lmul(F, gamma, {r: 1}))
    if not left[1] or (right[1] and min(left[1]) > min(right[1])):
        left = right
    r_new = r - 2 * min(left[1])
    return r_new, _quotient_below(F, left[0], left[1], r_new)


def vertex_text(r, terms):
    body = "+".join("%d*s^%d" % (c, e) for e, c in sorted(terms.items()) if c)
    return "r=%d;a=%s" % (r, body or "0")
